//! Edit-script extraction for the Zhang–Shasha distance.
//!
//! Beyond the scalar distance, the Document Mapping Component wants to
//! *explain* a mapping: which nodes were relabeled, deleted, inserted and
//! which matched. This module runs the [`crate::zhang_shasha`] kernel,
//! then recomputes the forest table of each sub-problem on the optimal
//! path into the kernel's shared buffer and backtracks through it,
//! producing an optimal [`EditOp`] sequence whose total cost equals
//! [`crate::zhang_shasha::edit_distance`].
//!
//! Node references are post-order indices into the respective tree (the
//! same numbering [`post_order_labels`] yields), which keeps the script
//! self-contained and cheap to store.

use crate::zhang_shasha::{EditCosts, FlatTree, Interner, Kernel};
use webre_tree::Tree;

/// One operation of an edit script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditOp {
    /// Node `from` (in the source tree) corresponds to `to` (target) with
    /// equal labels: no cost.
    Match { from: usize, to: usize },
    /// Node `from` is relabeled to `to`'s label.
    Relabel { from: usize, to: usize },
    /// Node `from` of the source is deleted.
    Delete { from: usize },
    /// Node `to` of the target is inserted.
    Insert { to: usize },
}

/// Labels of a tree in post-order (the numbering edit scripts refer to).
pub fn post_order_labels(tree: &Tree<String>) -> Vec<String> {
    tree.post_order(tree.root())
        .map(|id| tree.value(id).clone())
        .collect()
}

/// Computes an optimal edit script together with its total cost.
pub fn edit_script(a: &Tree<String>, b: &Tree<String>, costs: &EditCosts) -> (u32, Vec<EditOp>) {
    let mut names = Interner::default();
    let a = FlatTree::from_tree(a, &mut names);
    let b = FlatTree::from_tree(b, &mut names);
    script(&a, &b, costs)
}

/// [`edit_script`] over trees already flattened through one interner.
pub(crate) fn script(t1: &FlatTree, t2: &FlatTree, costs: &EditCosts) -> (u32, Vec<EditOp>) {
    let (n, m) = (t1.len(), t2.len());
    let mut kernel = Kernel::run(t1, t2, costs);
    // Backtrack on the whole-tree problem, descending into sub-problems.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    backtrack(&mut kernel, n - 1, m - 1, &mut pairs);

    let mut ops = Vec::new();
    let (mut matched_a, mut matched_b) = (vec![false; n], vec![false; m]);
    for &(from, to) in &pairs {
        matched_a[from] = true;
        matched_b[to] = true;
        ops.push(if t1.labels[from] == t2.labels[to] {
            EditOp::Match { from, to }
        } else {
            EditOp::Relabel { from, to }
        });
    }
    for from in (0..n).filter(|&x| !matched_a[x]) {
        ops.push(EditOp::Delete { from });
    }
    for to in (0..m).filter(|&y| !matched_b[y]) {
        ops.push(EditOp::Insert { to });
    }
    let cost = ops
        .iter()
        .map(|op| match op {
            EditOp::Match { .. } => 0,
            EditOp::Relabel { .. } => costs.relabel,
            EditOp::Delete { .. } => costs.delete,
            EditOp::Insert { .. } => costs.insert,
        })
        .sum();
    (cost, ops)
}

/// Backtracks the tree problem rooted at post-order nodes `(i, j)`,
/// collecting matched/relabeled node pairs. The sub-problem's forest
/// table is recomputed into the kernel's shared buffer and walked to the
/// end before any nested sub-problem reuses that buffer.
fn backtrack(kernel: &mut Kernel<'_>, i: usize, j: usize, pairs: &mut Vec<(usize, usize)>) {
    let cols = kernel.forest_dist(i, j);
    let (t1, t2, costs) = (kernel.a, kernel.b, kernel.costs);
    let fd = |x: usize, y: usize| kernel.fd[x * cols + y];
    let li = t1.lml[i];
    let lj = t2.lml[j];
    // Diagonal steps in walk order: a root pair, or a nested sub-problem.
    let mut steps: Vec<(usize, usize, bool)> = Vec::new();
    let mut x = i - li + 1;
    let mut y = j - lj + 1;
    while x > 0 || y > 0 {
        if x > 0 && fd(x, y) == fd(x - 1, y) + costs.delete {
            x -= 1; // node li+x deleted
            continue;
        }
        if y > 0 && fd(x, y) == fd(x, y - 1) + costs.insert {
            y -= 1; // node lj+y inserted
            continue;
        }
        let node1 = li + x - 1;
        let node2 = lj + y - 1;
        let trees = t1.lml[node1] == li && t2.lml[node2] == lj;
        steps.push((node1, node2, trees));
        if trees {
            // Trees: the diagonal step pairs the two roots.
            x -= 1;
            y -= 1;
        } else {
            // Sub-tree substitution: jump over both subtrees.
            x = t1.lml[node1] - li;
            y = t2.lml[node2] - lj;
        }
    }
    for (node1, node2, trees) in steps {
        if trees {
            pairs.push((node1, node2));
        } else {
            backtrack(kernel, node1, node2, pairs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zhang_shasha::edit_distance;

    fn tree(spec: &str) -> Tree<String> {
        // Same tiny "a(b,c(d))" builder as the distance tests.
        fn parse(
            chars: &mut std::iter::Peekable<std::str::Chars>,
            tree: &mut Tree<String>,
            parent: Option<webre_tree::NodeId>,
        ) {
            loop {
                let mut label = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() {
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

    fn check(a: &str, b: &str) -> (u32, Vec<EditOp>) {
        let (ta, tb) = (tree(a), tree(b));
        let costs = EditCosts::default();
        let (cost, ops) = edit_script(&ta, &tb, &costs);
        assert_eq!(
            cost,
            edit_distance(&ta, &tb, &costs),
            "script cost diverges from distance for {a} vs {b}"
        );
        // Every source node is deleted or matched exactly once; target
        // nodes inserted or matched exactly once.
        let n = post_order_labels(&ta).len();
        let m = post_order_labels(&tb).len();
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
        assert!(from_seen.iter().all(|c| *c == 1), "{ops:?}");
        assert!(to_seen.iter().all(|c| *c == 1), "{ops:?}");
        (cost, ops)
    }

    #[test]
    fn identical_trees_all_match() {
        let (cost, ops) = check("a(b,c)", "a(b,c)");
        assert_eq!(cost, 0);
        assert!(ops.iter().all(|o| matches!(o, EditOp::Match { .. })));
        assert_eq!(ops.len(), 3);
    }

    #[test]
    fn single_relabel_script() {
        let (cost, ops) = check("a(b)", "a(x)");
        assert_eq!(cost, 1);
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o, EditOp::Relabel { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn delete_and_insert_scripts() {
        let (cost, ops) = check("a(b,c)", "a(b)");
        assert_eq!(cost, 1);
        assert!(ops.iter().any(|o| matches!(o, EditOp::Delete { .. })));

        let (cost, ops) = check("a", "a(b(c))");
        assert_eq!(cost, 2);
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o, EditOp::Insert { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn classic_example_script() {
        let (cost, _) = check("f(d(a,c(b)),e)", "f(c(d(a,b)),e)");
        assert_eq!(cost, 2);
    }

    #[test]
    fn larger_random_shapes_stay_consistent() {
        let specs = [
            "a(b(c,d),e(f,g),h)",
            "a(e(f,g),b(c,d))",
            "x(y(z))",
            "a(b,b,b,b)",
            "a(b(c(d(e))))",
        ];
        for x in &specs {
            for y in &specs {
                check(x, y);
            }
        }
    }

    #[test]
    fn post_order_labels_ordering() {
        let t = tree("a(b(c),d)");
        assert_eq!(post_order_labels(&t), ["c", "b", "d", "a"]);
    }
}
