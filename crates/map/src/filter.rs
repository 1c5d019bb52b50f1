//! Admissible lower bounds on the Zhang–Shasha edit distance.
//!
//! The tiered mapping planner ([`crate::planner`]) wants to skip the
//! quadratic edit-distance dynamic program whenever a cheap bound already
//! decides the outcome: a bound of zero on structurally identical trees
//! (the conformant fast path) or a bound above the reject budget (the
//! hopeless fast path). For that the bound must be **admissible** — it may
//! never exceed the true distance — or the planner would reject documents
//! the exact tier could still map within budget.
//!
//! pq-grams (Augsten et al.) were considered and rejected: the pq-gram
//! distance lower-bounds the *fanout-weighted* tree-edit distance, not the
//! plain Zhang–Shasha distance this crate reports, so using it here would
//! be unsound. Instead the filter combines three elementary invariants of
//! a single edit operation, each yielding a linear-time bound:
//!
//! 1. **Label histogram**: an optimal script matches `t` node pairs, of
//!    which at most `common = Σ_label min(countA, countB)` can be
//!    zero-cost matches; the remaining `t − common` pairs pay a relabel
//!    and the unmatched `n − t` / `m − t` nodes pay deletes / inserts.
//!    Minimizing over `t` gives a bound that is exact on bag-disjoint
//!    trees.
//! 2. **Leaf count**: only a leaf delete can lower the leaf count and
//!    only a leaf insert can raise it, each by at most one — so a leaf
//!    deficit of `k` forces `k` deletes (or inserts, directionally).
//! 3. **Depth**: one edit changes the tree height by at most one, and
//!    only deletes shrink it / inserts grow it.
//!
//! The returned bound is the maximum of the three (a maximum of
//! admissible bounds is admissible). The property tests at the bottom
//! hold `lower_bound ≤ edit_distance` over randomized tree pairs and
//! `lower_bound == 0` on identical trees.

use crate::zhang_shasha::{EditCosts, FlatTree, Interner};
use std::collections::BTreeMap;
use webre_tree::Tree;
use webre_xml::XmlDocument;

/// Linear-time structural summary of a label tree, sufficient to evaluate
/// every bound in this module without touching the tree again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeProfile {
    /// Total node count.
    pub size: usize,
    /// Label multiset (ordered so rendering/debugging is deterministic).
    pub labels: BTreeMap<String, usize>,
    /// Leaf count.
    pub leaves: usize,
    /// Height in nodes (a single-node tree has depth 1).
    pub depth: usize,
}

impl TreeProfile {
    /// Profiles a label tree.
    pub fn of_tree(tree: &Tree<String>) -> TreeProfile {
        let mut names = Interner::default();
        let flat = FlatTree::from_tree(tree, &mut names);
        TreeProfile::of_flat(&flat, &names)
    }

    /// Profiles an XML document's label tree (element names, `#PCDATA`
    /// text leaves — the same view [`crate::zhang_shasha::edit_distance_docs`]
    /// compares).
    pub fn of_doc(doc: &XmlDocument) -> TreeProfile {
        let mut names = Interner::default();
        let flat = FlatTree::from_doc(doc, &mut names);
        TreeProfile::of_flat(&flat, &names)
    }

    /// Profiles a tree already flattened through `names`.
    pub(crate) fn of_flat(tree: &FlatTree, names: &Interner<'_>) -> TreeProfile {
        let mut counts = vec![0usize; names.names.len()];
        for &label in &tree.labels {
            counts[label as usize] += 1;
        }
        let labels = names
            .names
            .iter()
            .zip(counts)
            .filter(|&(_, count)| count > 0)
            .map(|(name, count)| ((*name).to_owned(), count))
            .collect();
        TreeProfile {
            size: tree.len(),
            labels,
            leaves: (0..tree.len()).filter(|&i| tree.lml[i] == i).count(),
            depth: tree.depth,
        }
    }

    /// Shared label mass: `Σ_label min(countA, countB)`, an upper bound on
    /// the number of zero-cost matches any mapping can contain.
    fn common_labels(&self, other: &TreeProfile) -> usize {
        self.labels
            .iter()
            .map(|(label, &count)| count.min(other.labels.get(label).copied().unwrap_or(0)))
            .sum()
    }
}

/// An admissible lower bound on
/// [`crate::zhang_shasha::edit_distance`]`(a, b, costs)`: never exceeds
/// the true distance, and equals zero when the trees are identical.
pub fn lower_bound(a: &TreeProfile, b: &TreeProfile, costs: &EditCosts) -> u32 {
    let histogram = histogram_bound(a, b, costs);
    let leaves = directional_bound(a.leaves, b.leaves, costs);
    let depth = directional_bound(a.depth, b.depth, costs);
    histogram.max(leaves).max(depth)
}

/// Convenience: the bound for two documents, profiling both.
pub fn lower_bound_docs(a: &XmlDocument, b: &XmlDocument, costs: &EditCosts) -> u32 {
    lower_bound(&TreeProfile::of_doc(a), &TreeProfile::of_doc(b), costs)
}

/// The label-histogram bound: minimize
/// `(n−t)·delete + (m−t)·insert + max(0, t−common)·relabel` over the
/// matched-pair count `t ∈ [0, min(n,m)]`. The expression is piecewise
/// linear in `t` with breakpoint at `common`, so the minimum sits at
/// `t = min(common, min(n,m))` or `t = min(n,m)`.
fn histogram_bound(a: &TreeProfile, b: &TreeProfile, costs: &EditCosts) -> u32 {
    let n = a.size as u64;
    let m = b.size as u64;
    let common = a.common_labels(b) as u64;
    let t_max = n.min(m);
    let candidates = [common.min(t_max), t_max];
    candidates
        .iter()
        .map(|&t| {
            (n - t) * u64::from(costs.delete)
                + (m - t) * u64::from(costs.insert)
                + t.saturating_sub(common) * u64::from(costs.relabel)
        })
        .min()
        .unwrap_or(0)
        .min(u64::from(u32::MAX)) as u32
}

/// Directional structural bound: a deficit of `k` in a monotone quantity
/// (leaves, depth) that only deletes can lower and only inserts can raise
/// forces `k` operations of that kind.
fn directional_bound(a: usize, b: usize, costs: &EditCosts) -> u32 {
    let (deficit, per_op) = if a >= b {
        (a - b, costs.delete)
    } else {
        (b - a, costs.insert)
    };
    ((deficit as u64 * u64::from(per_op)).min(u64::from(u32::MAX))) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zhang_shasha::edit_distance;
    use webre_substrate::rand::rngs::StdRng;
    use webre_substrate::rand::{Rng, SeedableRng};

    /// A random label tree with up to `max_nodes` nodes drawn from a small
    /// alphabet (small so label collisions — the hard case for the
    /// histogram bound — are frequent).
    fn random_tree(rng: &mut StdRng, max_nodes: usize) -> Tree<String> {
        let labels = ["a", "b", "c", "d", "#PCDATA"];
        let n = rng.gen_range(1..=max_nodes.max(1));
        let mut tree = Tree::new(labels[rng.gen_range(0..labels.len())].to_owned());
        let mut nodes = vec![tree.root()];
        for _ in 1..n {
            let parent = nodes[rng.gen_range(0..nodes.len())];
            let label = labels[rng.gen_range(0..labels.len())].to_owned();
            nodes.push(tree.append_child(parent, label));
        }
        tree
    }

    fn random_costs(rng: &mut StdRng) -> EditCosts {
        EditCosts {
            insert: rng.gen_range(1..=5),
            delete: rng.gen_range(1..=5),
            relabel: rng.gen_range(1..=5),
        }
    }

    #[test]
    fn bound_is_admissible_on_randomized_pairs() {
        let mut rng = StdRng::seed_from_u64(0x1002);
        for case in 0..400 {
            let a = random_tree(&mut rng, 14);
            let b = random_tree(&mut rng, 14);
            let costs = if case % 3 == 0 {
                random_costs(&mut rng)
            } else {
                EditCosts::default()
            };
            let exact = edit_distance(&a, &b, &costs);
            let bound = lower_bound(&TreeProfile::of_tree(&a), &TreeProfile::of_tree(&b), &costs);
            assert!(
                bound <= exact,
                "inadmissible bound {bound} > exact {exact} (case {case}, costs {costs:?})"
            );
        }
    }

    #[test]
    fn bound_is_zero_on_identical_trees() {
        let mut rng = StdRng::seed_from_u64(0x1003);
        for _ in 0..100 {
            let a = random_tree(&mut rng, 20);
            let p = TreeProfile::of_tree(&a);
            assert_eq!(lower_bound(&p, &p, &EditCosts::default()), 0);
            assert_eq!(lower_bound(&p, &p, &random_costs(&mut rng)), 0);
        }
    }

    #[test]
    fn bound_is_exact_on_disjoint_label_bags() {
        // a(a,a) vs b(b): no shared labels, so the histogram bound equals
        // the true distance (relabel min(n,m), then delete the surplus).
        let mut a = Tree::new("a".to_owned());
        let r = a.root();
        a.append_child(r, "a".to_owned());
        a.append_child(r, "a".to_owned());
        let mut b = Tree::new("b".to_owned());
        b.append_child(b.root(), "b".to_owned());
        let costs = EditCosts::default();
        let exact = edit_distance(&a, &b, &costs);
        let bound = lower_bound(&TreeProfile::of_tree(&a), &TreeProfile::of_tree(&b), &costs);
        assert_eq!(bound, exact);
        assert_eq!(bound, 3); // 2 relabels + 1 delete
    }

    #[test]
    fn size_deficit_respects_directional_costs() {
        // a → a(b,c): two forced inserts at insert cost.
        let a = Tree::new("a".to_owned());
        let mut b = Tree::new("a".to_owned());
        b.append_child(b.root(), "b".to_owned());
        b.append_child(b.root(), "c".to_owned());
        let costs = EditCosts {
            insert: 7,
            delete: 1,
            relabel: 1,
        };
        let bound = lower_bound(&TreeProfile::of_tree(&a), &TreeProfile::of_tree(&b), &costs);
        assert_eq!(bound, 14);
        assert_eq!(edit_distance(&a, &b, &costs), 14);
    }

    #[test]
    fn depth_bound_fires_on_chains() {
        // Flat a(b,b,b) vs chain a(b(b(b))): histograms agree, but the
        // depth differs by 2 — the structural bounds must see it.
        let mut flat = Tree::new("a".to_owned());
        let r = flat.root();
        for _ in 0..3 {
            flat.append_child(r, "b".to_owned());
        }
        let mut chain = Tree::new("a".to_owned());
        let mut at = chain.root();
        for _ in 0..3 {
            at = chain.append_child(at, "b".to_owned());
        }
        let costs = EditCosts::default();
        let bound = lower_bound(
            &TreeProfile::of_tree(&flat),
            &TreeProfile::of_tree(&chain),
            &costs,
        );
        assert!(bound >= 2, "depth bound missed: {bound}");
        assert!(bound <= edit_distance(&flat, &chain, &costs));
    }

    #[test]
    fn profile_counts_are_correct() {
        let doc = webre_xml::parse_xml("<r><x>text</x><y/></r>").unwrap();
        let p = TreeProfile::of_doc(&doc);
        assert_eq!(p.size, 4); // r, x, #PCDATA, y
        assert_eq!(p.leaves, 2); // #PCDATA, y
        assert_eq!(p.depth, 3); // r > x > #PCDATA
        assert_eq!(p.labels.get("#PCDATA"), Some(&1));
        assert_eq!(p.labels.get("r"), Some(&1));
    }
}
