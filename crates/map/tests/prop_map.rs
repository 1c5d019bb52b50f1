//! Property tests for tree-edit distance and edit scripts.

use std::collections::HashMap;
use webre_map::edit_script::{edit_script, EditOp};
use webre_map::{edit_distance, EditCosts};
use webre_substrate::prop::{self, Gen};
use webre_substrate::{prop_assert, prop_assert_eq};
use webre_tree::Tree;

const CASES: u32 = 128;

/// Random label tree over a tiny alphabet.
fn gen_tree(g: &mut Gen) -> Tree<String> {
    let nodes = g.vec(0, 15, |g| (g.int(0usize..8), g.chars_in("abcd", 1, 1)));
    let mut tree = Tree::new("r".to_owned());
    let mut ids = vec![tree.root()];
    for (parent, label) in nodes {
        let p = ids[parent % ids.len()];
        ids.push(tree.append_child(p, label));
    }
    tree
}

#[test]
fn distance_is_a_metric_ish() {
    prop::check_cases("distance_is_a_metric_ish", CASES, |g| {
        let a = gen_tree(g);
        let b = gen_tree(g);
        let costs = EditCosts::default();
        let d_ab = edit_distance(&a, &b, &costs);
        let d_ba = edit_distance(&b, &a, &costs);
        prop_assert_eq!(d_ab, d_ba, "symmetry violated");
        prop_assert_eq!(edit_distance(&a, &a, &costs), 0);
        // Upper bound: delete all of a, insert all of b.
        let bound = a.subtree_size(a.root()) as u32 + b.subtree_size(b.root()) as u32;
        prop_assert!(d_ab <= bound);
        // Lower bound: size difference.
        let diff = (a.subtree_size(a.root()) as i64 - b.subtree_size(b.root()) as i64)
            .unsigned_abs() as u32;
        prop_assert!(d_ab >= diff);
        Ok(())
    });
}

#[test]
fn triangle_inequality() {
    prop::check_cases("triangle_inequality", CASES, |g| {
        let a = gen_tree(g);
        let b = gen_tree(g);
        let c = gen_tree(g);
        let costs = EditCosts::default();
        let ab = edit_distance(&a, &b, &costs);
        let bc = edit_distance(&b, &c, &costs);
        let ac = edit_distance(&a, &c, &costs);
        prop_assert!(ac <= ab + bc, "triangle violated: {ac} > {ab} + {bc}");
        Ok(())
    });
}

#[test]
fn script_cost_equals_distance() {
    prop::check_cases("script_cost_equals_distance", CASES, |g| {
        let a = gen_tree(g);
        let b = gen_tree(g);
        let costs = EditCosts::default();
        let (cost, ops) = edit_script(&a, &b, &costs);
        prop_assert_eq!(cost, edit_distance(&a, &b, &costs));
        // Each source node appears exactly once as Match/Relabel/Delete,
        // each target node exactly once as Match/Relabel/Insert.
        let n = a.subtree_size(a.root());
        let m = b.subtree_size(b.root());
        let mut from_seen = vec![0u32; n];
        let mut to_seen = vec![0u32; m];
        for op in &ops {
            match *op {
                EditOp::Match { from, to } | EditOp::Relabel { from, to } => {
                    from_seen[from] += 1;
                    to_seen[to] += 1;
                }
                EditOp::Delete { from } => from_seen[from] += 1,
                EditOp::Insert { to } => to_seen[to] += 1,
            }
        }
        prop_assert!(from_seen.iter().all(|c| *c == 1));
        prop_assert!(to_seen.iter().all(|c| *c == 1));
        Ok(())
    });
}

#[test]
fn matches_preserve_postorder_order() {
    prop::check_cases("matches_preserve_postorder_order", CASES, |g| {
        let a = gen_tree(g);
        let b = gen_tree(g);
        // A valid Zhang–Shasha mapping is order-preserving on post-order
        // indices for nodes on the same root path structure; at minimum the
        // pair lists must be strictly increasing when sorted by source.
        let costs = EditCosts::default();
        let (_, ops) = edit_script(&a, &b, &costs);
        let mut pairs: Vec<(usize, usize)> = ops
            .iter()
            .filter_map(|op| match *op {
                EditOp::Match { from, to } | EditOp::Relabel { from, to } => Some((from, to)),
                _ => None,
            })
            .collect();
        pairs.sort_unstable();
        for w in pairs.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
            prop_assert!(w[0].1 != w[1].1, "target node mapped twice");
        }
        Ok(())
    });
}

/// An ordered tree as plain nested values, for the oracle below.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Node {
    label: String,
    children: Vec<Node>,
}

fn to_node(tree: &Tree<String>, id: webre_tree::NodeId) -> Node {
    Node {
        label: tree.value(id).clone(),
        children: tree.children(id).map(|c| to_node(tree, c)).collect(),
    }
}

type Memo = HashMap<(Vec<Node>, Vec<Node>), u32>;

/// The textbook forest-distance recursion on the rightmost roots `v` of
/// `f` and `w` of `g`, memoized on the forest pair: delete `v` (its
/// children take its place), insert `w`, or map `v` to `w` and solve the
/// children forests and the remaining forests separately. It shares no
/// code, numbering or table with the kernel under test.
fn oracle(f: &[Node], g: &[Node], costs: &EditCosts, memo: &mut Memo) -> u32 {
    let key = (f.to_vec(), g.to_vec());
    if let Some(&d) = memo.get(&key) {
        return d;
    }
    let without_root = |forest: &[Node]| {
        let (root, rest) = forest.split_last().expect("non-empty forest");
        let mut out = rest.to_vec();
        out.extend(root.children.iter().cloned());
        out
    };
    let mut best = if f.is_empty() && g.is_empty() {
        0
    } else {
        u32::MAX
    };
    if !f.is_empty() {
        best = best.min(oracle(&without_root(f), g, costs, memo) + costs.delete);
    }
    if !g.is_empty() {
        best = best.min(oracle(f, &without_root(g), costs, memo) + costs.insert);
    }
    if let (Some((v, f_rest)), Some((w, g_rest))) = (f.split_last(), g.split_last()) {
        let relabel = if v.label == w.label { 0 } else { costs.relabel };
        best = best.min(
            oracle(&v.children, &w.children, costs, memo)
                + oracle(f_rest, g_rest, costs, memo)
                + relabel,
        );
    }
    memo.insert(key, best);
    best
}

/// Random label tree of at most 9 nodes with a random root label.
fn gen_small_tree(g: &mut Gen) -> Tree<String> {
    let mut tree = Tree::new(g.chars_in("abc", 1, 1));
    let mut ids = vec![tree.root()];
    for (parent, label) in g.vec(0, 8, |g| (g.int(0usize..8), g.chars_in("abc", 1, 1))) {
        let p = ids[parent % ids.len()];
        ids.push(tree.append_child(p, label));
    }
    tree
}

#[test]
fn kernel_matches_textbook_recursion() {
    let cost_sets = [
        EditCosts::default(),
        EditCosts {
            insert: 2,
            delete: 3,
            relabel: 1,
        },
        EditCosts {
            insert: 1,
            delete: 4,
            relabel: 7,
        },
    ];
    prop::check_cases("kernel_matches_textbook_recursion", CASES, |g| {
        let a = gen_small_tree(g);
        let b = gen_small_tree(g);
        let (fa, fb) = (vec![to_node(&a, a.root())], vec![to_node(&b, b.root())]);
        for costs in &cost_sets {
            let expected = oracle(&fa, &fb, costs, &mut Memo::new());
            prop_assert_eq!(edit_distance(&a, &b, costs), expected, "costs {costs:?}");
            prop_assert_eq!(edit_script(&a, &b, costs).0, expected, "costs {costs:?}");
        }
        Ok(())
    });
}

#[test]
fn script_cost_equals_distance_non_unit() {
    prop::check_cases("script_cost_equals_distance_non_unit", CASES, |g| {
        let a = gen_tree(g);
        let b = gen_tree(g);
        let costs = EditCosts {
            insert: g.int(1u32..=5),
            delete: g.int(1u32..=5),
            relabel: g.int(1u32..=5),
        };
        let (cost, _) = edit_script(&a, &b, &costs);
        prop_assert_eq!(cost, edit_distance(&a, &b, &costs), "costs {costs:?}");
        Ok(())
    });
}
