//! Zhang–Shasha ordered tree-edit distance.
//!
//! The classical dynamic program over post-order numbering, leftmost-leaf
//! indices and keyroots (Zhang & Shasha, SIAM J. Comput. 1989). Costs are
//! unit by default (insert 1, delete 1, relabel 1) and configurable via
//! [`EditCosts`]. Complexity is
//! `O(|T₁|·|T₂|·min(depth₁,leaves₁)·min(depth₂,leaves₂))` — comfortably
//! fast for resume-sized documents.
//!
//! Each tree is flattened once to post-order arrays ([`FlatTree`]) with
//! labels interned to `u32`; leftmost leaves and keyroots take O(n). The
//! [`Kernel`] is the crate's only copy of the DP: one flat `n×m`
//! tree-distance table and one forest buffer reused by every keyroot
//! pair. [`crate::edit_script`] backtracks on the same kernel.

use std::collections::HashMap;
use webre_tree::{Edge, Tree};
use webre_xml::XmlDocument;

/// Operation costs for the edit distance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EditCosts {
    pub insert: u32,
    pub delete: u32,
    pub relabel: u32,
}

impl Default for EditCosts {
    fn default() -> Self {
        EditCosts {
            insert: 1,
            delete: 1,
            relabel: 1,
        }
    }
}

/// Interns labels to dense `u32` ids. Trees compared with each other must
/// be flattened through the same interner, so equal labels get equal ids.
#[derive(Default)]
pub(crate) struct Interner<'a> {
    ids: HashMap<&'a str, u32>,
    /// Every interned label, indexed by id.
    pub(crate) names: Vec<&'a str>,
}

impl<'a> Interner<'a> {
    fn intern(&mut self, label: &'a str) -> u32 {
        let next = self.names.len() as u32;
        *self.ids.entry(label).or_insert_with(|| {
            self.names.push(label);
            next
        })
    }
}

/// A label tree flattened to the arrays the dynamic program reads, each
/// indexed by post-order number. Two flattenings through one interner are
/// equal exactly when the label trees are.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FlatTree {
    /// Interned label of each node.
    pub(crate) labels: Vec<u32>,
    /// `lml[i]`: post-order index of the leftmost leaf of the subtree at
    /// `i`; node `i` is a leaf exactly when `lml[i] == i`.
    pub(crate) lml: Vec<usize>,
    /// Keyroots in ascending order: the largest node for each distinct
    /// `lml` (the root and every node with a left sibling).
    keyroots: Vec<usize>,
    /// Height in nodes (a single-node tree has depth 1).
    pub(crate) depth: usize,
}

impl FlatTree {
    /// Flattens a label tree.
    pub(crate) fn from_tree<'a>(tree: &'a Tree<String>, names: &mut Interner<'a>) -> FlatTree {
        FlatTree::build(tree, String::as_str, names)
    }

    /// Flattens an XML document's label tree: element names, with text
    /// nodes as `#PCDATA` leaves.
    pub(crate) fn from_doc<'a>(doc: &'a XmlDocument, names: &mut Interner<'a>) -> FlatTree {
        FlatTree::build(&doc.tree, |node| node.name().unwrap_or("#PCDATA"), names)
    }

    /// One depth-first walk, numbering nodes as it leaves them. The leftmost
    /// leaf of a subtree is the first of its nodes to be numbered, so a
    /// node's `lml` is the count of numbered nodes when the walk enters it.
    fn build<'a, T>(
        tree: &'a Tree<T>,
        label: impl Fn(&'a T) -> &'a str,
        names: &mut Interner<'a>,
    ) -> FlatTree {
        let (mut labels, mut lml, mut depth) = (Vec::new(), Vec::new(), 0);
        // The leftmost leaf of every node the walk is inside.
        let mut open = Vec::new();
        for edge in tree.traverse(tree.root()) {
            match edge {
                Edge::Open(_) => {
                    open.push(labels.len());
                    depth = depth.max(open.len());
                }
                Edge::Close(id) => {
                    labels.push(names.intern(label(tree.value(id))));
                    lml.extend(open.pop());
                }
            }
        }
        // The last node with a given leftmost leaf is that leaf's keyroot.
        let mut last = vec![0; lml.len()];
        for (i, &leaf) in lml.iter().enumerate() {
            last[leaf] = i;
        }
        let keyroots = (0..lml.len()).filter(|&i| last[lml[i]] == i).collect();
        FlatTree {
            labels,
            lml,
            keyroots,
            depth,
        }
    }

    /// Node count.
    pub(crate) fn len(&self) -> usize {
        self.labels.len()
    }
}

/// The dynamic program over one pair of flattened trees.
pub(crate) struct Kernel<'t> {
    pub(crate) a: &'t FlatTree,
    pub(crate) b: &'t FlatTree,
    pub(crate) costs: EditCosts,
    /// `treedist[i·m + j]`: distance between the subtrees at `a`'s node `i`
    /// and `b`'s node `j`.
    treedist: Vec<u32>,
    /// Forest table of the most recent [`Kernel::forest_dist`] call,
    /// row-major; sized once for the whole-tree pair and reused.
    pub(crate) fd: Vec<u32>,
}

impl<'t> Kernel<'t> {
    /// Runs the forest DP for every keyroot pair, filling the tree-distance
    /// table.
    pub(crate) fn run(a: &'t FlatTree, b: &'t FlatTree, costs: &EditCosts) -> Kernel<'t> {
        let mut kernel = Kernel {
            a,
            b,
            costs: *costs,
            treedist: vec![0; a.len() * b.len()],
            fd: vec![0; (a.len() + 1) * (b.len() + 1)],
        };
        for &i in &a.keyroots {
            for &j in &b.keyroots {
                kernel.forest_dist(i, j);
            }
        }
        kernel
    }

    /// Distance between the two whole trees.
    pub(crate) fn distance(&self) -> u32 {
        self.treedist[self.treedist.len() - 1]
    }

    /// The forest DP for the subtrees at `(i, j)`. Afterwards
    /// `fd[x·cols + y]` is the distance between `a`'s forest
    /// `lml[i]..lml[i]+x` and `b`'s forest `lml[j]..lml[j]+y`; returns
    /// `cols`. Whole-subtree cells are recorded in the tree-distance table
    /// (rewriting a cell stores the value it already held).
    pub(crate) fn forest_dist(&mut self, i: usize, j: usize) -> usize {
        let (a, b, costs) = (self.a, self.b, self.costs);
        let (li, lj) = (a.lml[i], b.lml[j]);
        let cols = j - lj + 2;
        let m = b.len();
        let fd = &mut self.fd[..(i - li + 2) * cols];
        fd[0] = 0;
        for y in 1..cols {
            fd[y] = fd[y - 1] + costs.insert;
        }
        for node1 in li..=i {
            let x = node1 - li + 1;
            let (done, row) = fd.split_at_mut(x * cols);
            let prev = &done[(x - 1) * cols..];
            // The row at which node1's own subtree forest starts.
            let sub = &done[(a.lml[node1] - li) * cols..];
            let mut left = prev[0] + costs.delete;
            row[0] = left;
            // Column y ≥ 1 is b's node lj + y - 1: its cell, the cells
            // above-left and above, its leftmost leaf and label, and its
            // tree distance to node1.
            let cells = row[1..cols]
                .iter_mut()
                .zip(prev.windows(2))
                .zip(b.lml[lj..=j].iter().zip(&b.labels[lj..=j]))
                .zip(&mut self.treedist[node1 * m + lj..=node1 * m + j]);
            let (whole1, label1) = (a.lml[node1] == li, a.labels[node1]);
            for (((cell, above), (&leaf, &label2)), dist) in cells {
                let edit = (above[1] + costs.delete).min(left + costs.insert);
                left = if whole1 && leaf == lj {
                    // Both forests are whole trees: record tree distance.
                    let relabel = if label1 == label2 { 0 } else { costs.relabel };
                    *dist = edit.min(above[0] + relabel);
                    *dist
                } else {
                    edit.min(sub[leaf - lj] + *dist)
                };
                *cell = left;
            }
        }
        cols
    }
}

/// Computes the edit distance between two label trees.
pub fn edit_distance(a: &Tree<String>, b: &Tree<String>, costs: &EditCosts) -> u32 {
    let mut names = Interner::default();
    let a = FlatTree::from_tree(a, &mut names);
    let b = FlatTree::from_tree(b, &mut names);
    Kernel::run(&a, &b, costs).distance()
}

/// Edit distance between two XML documents' structures (element names;
/// text nodes are `#PCDATA` leaves).
pub fn edit_distance_docs(a: &XmlDocument, b: &XmlDocument, costs: &EditCosts) -> u32 {
    let mut names = Interner::default();
    let a = FlatTree::from_doc(a, &mut names);
    let b = FlatTree::from_doc(b, &mut names);
    Kernel::run(&a, &b, costs).distance()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(spec: &str) -> Tree<String> {
        // Tiny builder: "a(b,c(d))" syntax.
        fn parse(chars: &mut std::iter::Peekable<std::str::Chars>, tree: &mut Tree<String>, parent: Option<webre_tree::NodeId>) {
            loop {
                let mut label = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '#' {
                        label.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let node = match parent {
                    Some(p) => tree.append_child(p, label),
                    None => {
                        *tree.value_mut(tree.root()) = label;
                        tree.root()
                    }
                };
                match chars.peek() {
                    Some('(') => {
                        chars.next();
                        parse(chars, tree, Some(node));
                        match chars.peek() {
                            Some(',') => {
                                chars.next();
                                continue;
                            }
                            Some(')') => {
                                chars.next();
                                return;
                            }
                            _ => return,
                        }
                    }
                    Some(',') => {
                        chars.next();
                        continue;
                    }
                    Some(')') => {
                        chars.next();
                        return;
                    }
                    _ => return,
                }
            }
        }
        let mut t = Tree::new(String::new());
        parse(&mut spec.chars().peekable(), &mut t, None);
        t
    }

    fn d(a: &str, b: &str) -> u32 {
        edit_distance(&tree(a), &tree(b), &EditCosts::default())
    }

    #[test]
    fn identical_trees_are_distance_zero() {
        assert_eq!(d("a(b,c)", "a(b,c)"), 0);
        assert_eq!(d("a", "a"), 0);
    }

    #[test]
    fn single_relabel() {
        assert_eq!(d("a", "b"), 1);
        assert_eq!(d("a(b,c)", "a(b,x)"), 1);
        assert_eq!(d("a(b,c)", "x(b,c)"), 1);
    }

    #[test]
    fn single_insert_or_delete() {
        assert_eq!(d("a(b)", "a(b,c)"), 1);
        assert_eq!(d("a(b,c)", "a(b)"), 1);
        assert_eq!(d("a", "a(b)"), 1);
    }

    #[test]
    fn insert_intermediate_node() {
        // a(b) → a(x(b)): insert x between a and b.
        assert_eq!(d("a(b)", "a(x(b))"), 1);
    }

    #[test]
    fn delete_collapses_subtree_children_up() {
        // a(x(b,c)) → a(b,c): delete x.
        assert_eq!(d("a(x(b,c))", "a(b,c)"), 1);
    }

    #[test]
    fn symmetric() {
        let pairs = [("a(b,c)", "a(c,b)"), ("a(b(d),c)", "a(b,c(d))"), ("a", "b(c)")];
        for (x, y) in pairs {
            assert_eq!(d(x, y), d(y, x), "asymmetry for {x} vs {y}");
        }
    }

    #[test]
    fn sibling_swap_costs_two_unit_ops() {
        // b,c → c,b: relabel both (or delete+insert) = 2.
        assert_eq!(d("a(b,c)", "a(c,b)"), 2);
    }

    #[test]
    fn known_zhang_shasha_example() {
        // The classical example: f(d(a,c(b)),e) vs f(c(d(a,b)),e) = 2.
        assert_eq!(d("f(d(a,c(b)),e)", "f(c(d(a,b)),e)"), 2);
    }

    #[test]
    fn flattening_finds_leftmost_leaves_and_keyroots() {
        // Post-order a b c d e f; keyroots are c, e and the root f.
        let t = tree("f(d(a,c(b)),e)");
        let mut names = Interner::default();
        let flat = FlatTree::from_tree(&t, &mut names);
        assert_eq!(names.names, ["a", "b", "c", "d", "e", "f"]);
        assert_eq!(flat.labels, [0, 1, 2, 3, 4, 5]);
        assert_eq!(flat.lml, [0, 1, 1, 0, 4, 0]);
        assert_eq!(flat.keyroots, [2, 4, 5]);
        assert_eq!(flat.depth, 4);
        // A shared interner gives equal labels equal ids.
        let other = FlatTree::from_tree(&tree("e(f)"), &mut names);
        assert_eq!(other.labels, [5, 4]);
    }

    #[test]
    fn custom_costs_respected() {
        let costs = EditCosts {
            insert: 10,
            delete: 1,
            relabel: 100,
        };
        // a(b) → a: cheaper to delete b (1) than anything else.
        assert_eq!(edit_distance(&tree("a(b)"), &tree("a"), &costs), 1);
        // a → a(b): must insert (10).
        assert_eq!(edit_distance(&tree("a"), &tree("a(b)"), &costs), 10);
        // relabel vs delete+insert: a→b costs min(100, 1+10) = 11.
        assert_eq!(edit_distance(&tree("a"), &tree("b"), &costs), 11);
    }

    #[test]
    fn distance_bounded_by_sizes() {
        let a = tree("a(b(c,d),e(f))");
        let b = tree("x(y)");
        let dist = edit_distance(&a, &b, &EditCosts::default());
        assert!(dist <= 6 + 2);
        assert!(dist >= 4); // at least delete the size difference
    }

    #[test]
    fn docs_distance_uses_labels() {
        use webre_xml::parse_xml;
        let a = parse_xml("<r><x/><y/></r>").unwrap();
        let b = parse_xml("<r><x/></r>").unwrap();
        assert_eq!(edit_distance_docs(&a, &b, &EditCosts::default()), 1);
    }

    #[test]
    fn triangle_inequality_spot_checks() {
        let specs = ["a(b,c)", "a(b(d),c)", "x(b)", "a", "a(c(b))"];
        for x in &specs {
            for y in &specs {
                for z in &specs {
                    assert!(
                        d(x, z) <= d(x, y) + d(y, z),
                        "triangle violated: {x} {y} {z}"
                    );
                }
            }
        }
    }
}
