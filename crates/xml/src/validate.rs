//! DTD conformance checking via Brzozowski derivatives.
//!
//! A content model is a regular expression over element names (plus
//! `#PCDATA`). To validate an element we take the sequence of its children's
//! labels and repeatedly take the derivative of the content model with
//! respect to each label; the element conforms if the final expression is
//! nullable. Derivatives keep the matcher simple, allocation-light and
//! obviously correct — the property tests cross-check it against a
//! brute-force oracle.
//!
//! Following the paper's DTD style, `#PCDATA` inside a sequence means
//! "optional text here"; the matcher treats `#PCDATA` as nullable and as
//! matching any number of consecutive `#PCDATA` tokens. Matching is strict
//! otherwise: a text child is only admitted where the model has `#PCDATA`.

use crate::document::{XmlDocument, XmlNode};
use crate::dtd::{ContentExpr, Dtd};

/// Whether the expression matches the empty sequence.
pub fn nullable(expr: &ContentExpr) -> bool {
    match expr {
        ContentExpr::Empty => true,
        ContentExpr::PcData => true, // text is always optional
        ContentExpr::Name(_) => false,
        ContentExpr::Seq(items) => items.iter().all(nullable),
        ContentExpr::Choice(items) => items.iter().any(nullable),
        ContentExpr::Opt(_) | ContentExpr::Star(_) => true,
        ContentExpr::Plus(inner) => nullable(inner),
    }
}

/// The Brzozowski derivative of `expr` with respect to the label `token`.
///
/// Returns `None` when the derivative is the empty language (no match).
fn deriv(expr: &ContentExpr, token: &str) -> Option<ContentExpr> {
    match expr {
        ContentExpr::Empty => None,
        ContentExpr::PcData => {
            if token == "#PCDATA" {
                // Paper-style (#PCDATA) admits any number of text nodes.
                Some(ContentExpr::PcData)
            } else {
                None
            }
        }
        ContentExpr::Name(n) => {
            if n == token {
                Some(ContentExpr::Seq(Vec::new())) // ε
            } else {
                None
            }
        }
        ContentExpr::Seq(items) => {
            // d(a·rest) = d(a)·rest  |  (nullable(a) ? d(rest) : ∅)
            let Some((head, rest)) = items.split_first() else {
                return None; // ε has no derivative
            };
            let via_head = deriv(head, token).map(|d| {
                let mut seq = Vec::with_capacity(rest.len() + 1);
                if !is_epsilon(&d) {
                    seq.push(d);
                }
                seq.extend(rest.iter().cloned());
                flatten_seq(seq)
            });
            let via_rest = if nullable(head) {
                deriv(&ContentExpr::Seq(rest.to_vec()), token)
            } else {
                None
            };
            union(via_head, via_rest)
        }
        ContentExpr::Choice(items) => {
            let mut result: Option<ContentExpr> = None;
            for item in items {
                result = union(result, deriv(item, token));
            }
            result
        }
        ContentExpr::Opt(inner) => deriv(inner, token),
        ContentExpr::Star(inner) => deriv(inner, token).map(|d| {
            ContentExpr::seq([d, ContentExpr::Star(inner.clone())])
        }),
        ContentExpr::Plus(inner) => deriv(inner, token).map(|d| {
            ContentExpr::seq([d, ContentExpr::Star(inner.clone())])
        }),
    }
}

fn is_epsilon(expr: &ContentExpr) -> bool {
    matches!(expr, ContentExpr::Seq(items) if items.is_empty())
}

/// A sequence with single-item unwrapping and nested-sequence flattening,
/// so repeated derivation cannot pile up `Seq(Seq(…))` towers.
fn flatten_seq(items: Vec<ContentExpr>) -> ContentExpr {
    let mut flat = Vec::with_capacity(items.len());
    for item in items {
        match item {
            ContentExpr::Seq(inner) => flat.extend(inner),
            other => flat.push(other),
        }
    }
    if flat.len() == 1 {
        flat.pop().expect("len checked")
    } else {
        ContentExpr::Seq(flat)
    }
}

/// Union of two derivative results, reduced modulo similarity: nested
/// choices are flattened and duplicate alternatives dropped. Without this
/// reduction the derivative of an ambiguous model (e.g. nested stars over
/// overlapping choices) doubles in size at every token and matching
/// becomes exponential in the word length; with it, the set of distinct
/// alternatives stays bounded by the distinct derivatives of the original
/// model's subterms.
fn union(a: Option<ContentExpr>, b: Option<ContentExpr>) -> Option<ContentExpr> {
    let (a, b) = match (a, b) {
        (None, x) | (x, None) => return x,
        (Some(a), Some(b)) => (a, b),
    };
    let mut alts: Vec<ContentExpr> = Vec::new();
    for side in [a, b] {
        let side_alts = match side {
            ContentExpr::Choice(inner) => inner,
            other => vec![other],
        };
        for alt in side_alts {
            if !alts.contains(&alt) {
                alts.push(alt);
            }
        }
    }
    Some(if alts.len() == 1 {
        alts.pop().expect("len checked")
    } else {
        ContentExpr::Choice(alts)
    })
}

/// Whether the token sequence `tokens` matches the content model `expr`.
pub fn matches(expr: &ContentExpr, tokens: &[&str]) -> bool {
    let mut tokens = tokens;
    let mut current = match expr {
        ContentExpr::Seq(items) => {
            // Sequence models take their leading items in place: a name
            // consumes an equal token (any other token cannot match), and
            // `#PCDATA`, being optional text, lets an element token pass.
            // Derivatives take over from the first other item or text
            // token, so a long sequence is not re-cloned per child.
            let mut at = 0;
            while let (Some(item), Some(&token)) = (items.get(at), tokens.first()) {
                match item {
                    ContentExpr::Name(n) if n == token => tokens = &tokens[1..],
                    ContentExpr::Name(_) => return false,
                    ContentExpr::PcData if token != "#PCDATA" => {}
                    _ => break,
                }
                at += 1;
            }
            ContentExpr::Seq(items[at..].to_vec())
        }
        other => other.clone(),
    };
    for token in tokens {
        match deriv(&current, token) {
            Some(next) => current = next,
            None => return false,
        }
    }
    nullable(&current) || is_epsilon(&current)
}

/// A conformance violation found by [`validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConformanceError {
    /// The document's root element differs from the DTD root.
    WrongRoot { expected: String, found: String },
    /// An element has no declaration in the DTD.
    UndeclaredElement { name: String },
    /// An element's children do not match its declared content model.
    ContentMismatch {
        element: String,
        children: Vec<String>,
        model: String,
    },
}

impl std::fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConformanceError::WrongRoot { expected, found } => {
                write!(f, "root element is <{found}>, DTD expects <{expected}>")
            }
            ConformanceError::UndeclaredElement { name } => {
                write!(f, "element <{name}> is not declared in the DTD")
            }
            ConformanceError::ContentMismatch {
                element,
                children,
                model,
            } => write!(
                f,
                "children of <{element}> ({}) do not match content model {model}",
                children.join(", ")
            ),
        }
    }
}

/// Validates `doc` against `dtd`, returning every violation found.
///
/// An empty result means the document conforms. Elements with a `val`
/// attribute are treated as also carrying text (the paper's conversion
/// stores text in `val` rather than as child text nodes), which trivially
/// satisfies any `#PCDATA` in the model since text is optional.
pub fn validate(doc: &XmlDocument, dtd: &Dtd) -> Vec<ConformanceError> {
    let mut errors = Vec::new();
    if doc.root_name() != dtd.root {
        errors.push(ConformanceError::WrongRoot {
            expected: dtd.root.clone(),
            found: doc.root_name().to_owned(),
        });
    }
    for id in doc.tree.descendants(doc.root()) {
        let XmlNode::Element { name, .. } = doc.tree.value(id) else {
            continue;
        };
        let Some(model) = dtd.content_of(name) else {
            errors.push(ConformanceError::UndeclaredElement { name: name.clone() });
            continue;
        };
        let children: Vec<&str> = doc.tree.children(id).map(|c| doc.label(c)).collect();
        if !matches(model, &children) {
            errors.push(ConformanceError::ContentMismatch {
                element: name.clone(),
                children: children.iter().map(|s| (*s).to_owned()).collect(),
                model: model.to_string(),
            });
        }
    }
    errors
}

/// Convenience: whether `doc` fully conforms to `dtd`.
pub fn conforms(doc: &XmlDocument, dtd: &Dtd) -> bool {
    validate(doc, dtd).is_empty()
}

/// Validates a single element-children sequence by name, used by the mapper.
pub fn element_conforms(dtd: &Dtd, name: &str, children: &[&str]) -> bool {
    match dtd.content_of(name) {
        Some(model) => matches(model, children),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd::parse_content_expr;

    fn m(model: &str, tokens: &[&str]) -> bool {
        matches(&parse_content_expr(model).unwrap(), tokens)
    }

    #[test]
    fn single_name() {
        assert!(m("(a)", &["a"]));
        assert!(!m("(a)", &[]));
        assert!(!m("(a)", &["b"]));
        assert!(!m("(a)", &["a", "a"]));
    }

    #[test]
    fn sequences() {
        assert!(m("(a, b, c)", &["a", "b", "c"]));
        assert!(!m("(a, b, c)", &["a", "c", "b"]));
        assert!(!m("(a, b, c)", &["a", "b"]));
    }

    #[test]
    fn choice() {
        assert!(m("(a | b)", &["a"]));
        assert!(m("(a | b)", &["b"]));
        assert!(!m("(a | b)", &["a", "b"]));
    }

    #[test]
    fn optional_and_star_and_plus() {
        assert!(m("(a?)", &[]));
        assert!(m("(a?)", &["a"]));
        assert!(!m("(a?)", &["a", "a"]));
        assert!(m("(a*)", &[]));
        assert!(m("(a*)", &["a", "a", "a"]));
        assert!(!m("(a+)", &[]));
        assert!(m("(a+)", &["a", "a"]));
    }

    #[test]
    fn grouped_repetition() {
        assert!(m("((a, b)+, c)", &["a", "b", "a", "b", "c"]));
        assert!(!m("((a, b)+, c)", &["a", "a", "b", "c"]));
    }

    #[test]
    fn pcdata_is_optional_and_repeatable() {
        assert!(m("(#PCDATA)", &[]));
        assert!(m("(#PCDATA)", &["#PCDATA"]));
        assert!(m("(#PCDATA)", &["#PCDATA", "#PCDATA"]));
        assert!(!m("(#PCDATA)", &["a"]));
    }

    #[test]
    fn paper_resume_model() {
        // The model from the paper's Section 4.4 fragment.
        let model = "((#PCDATA), contact+, objective, education+, courses, \
                     experience+, awards, skills, activities+, reference)";
        assert!(m(
            model,
            &[
                "contact",
                "objective",
                "education",
                "education",
                "courses",
                "experience",
                "awards",
                "skills",
                "activities",
                "reference"
            ]
        ));
        // Missing a required element.
        assert!(!m(
            model,
            &["contact", "objective", "courses", "experience", "awards", "skills", "activities", "reference"]
        ));
        // Leading text is fine.
        assert!(m(
            model,
            &[
                "#PCDATA",
                "contact",
                "objective",
                "education",
                "courses",
                "experience",
                "awards",
                "skills",
                "activities",
                "reference"
            ]
        ));
    }

    #[test]
    fn empty_model() {
        assert!(m("EMPTY", &[]));
        assert!(!m("EMPTY", &["a"]));
    }

    #[test]
    fn validate_document() {
        use crate::document::{XmlDocument, XmlNode};
        let mut dtd = Dtd::new("r");
        dtd.declare("r", parse_content_expr("(a+, b)").unwrap());
        dtd.declare("a", ContentExpr::PcData);
        dtd.declare("b", ContentExpr::PcData);

        let mut doc = XmlDocument::new("r");
        let root = doc.root();
        doc.tree.append_child(root, XmlNode::element("a"));
        doc.tree.append_child(root, XmlNode::element("a"));
        doc.tree.append_child(root, XmlNode::element("b"));
        assert!(conforms(&doc, &dtd));

        // Add an undeclared element and break the order.
        doc.tree.append_child(root, XmlNode::element("z"));
        let errs = validate(&doc, &dtd);
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs
            .iter()
            .any(|e| matches!(e, ConformanceError::UndeclaredElement { name } if name == "z")));
        assert!(errs
            .iter()
            .any(|e| matches!(e, ConformanceError::ContentMismatch { element, .. } if element == "r")));
    }

    #[test]
    fn validate_wrong_root() {
        let dtd = Dtd::new("resume");
        let doc = XmlDocument::new("cv");
        let errs = validate(&doc, &dtd);
        assert!(matches!(&errs[0], ConformanceError::WrongRoot { .. }));
    }

    #[test]
    fn error_display() {
        let e = ConformanceError::ContentMismatch {
            element: "r".into(),
            children: vec!["a".into(), "b".into()],
            model: "(a)".into(),
        };
        assert!(e.to_string().contains("<r>"));
    }
}
