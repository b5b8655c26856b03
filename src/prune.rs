//! Unsat pruning: an automata-backed pass the engine runs on a plan-cache
//! miss, between the simplify stage and the backend compile.
//!
//! The syntactic rules in `twx_regxpath::simplify` only recognise `⊥`
//! literally. This pass goes further on the **downward fragment** (axes
//! `↓`, `↓⁺` only), where satisfiability is decidable by the bottom-up
//! type automaton of [`twx_treeauto::xpath_compile`]: every filter and
//! test subexpression of a query that falls in the fragment is checked,
//! and statically-unsatisfiable ones are replaced by `⊥` — which a
//! following simplify fixpoint then propagates, often collapsing whole
//! branches of the plan before any backend sees them. Each replacement
//! ticks the `simplify_unsat_pruned` counter, and every check adds the
//! rule evaluations it spent to `prune_steps`, so the pass is visible in
//! EXPLAIN profiles.
//!
//! The decision procedure is EXPTIME, so each check runs under a fixed
//! step budget ([`MAX_CHECK_STEPS`]); a check that exhausts it answers
//! "unknown" and the filter is kept. Keeping a filter is always sound —
//! pruning is an optimisation, never a requirement.
//!
//! Soundness under shared catalogs: a [`Catalog`](twx_xtree::Catalog) is
//! append-only, so a plan compiled today must stay correct for documents
//! that use labels interned tomorrow. The satisfiability check therefore
//! runs over the labels the formula *mentions* plus one fresh
//! representative for "any other label": a downward formula cannot
//! distinguish two labels it does not mention, so unsatisfiability over
//! that alphabet implies unsatisfiability over every larger one. (The
//! converse direction is why the check is conservative: `¬p` alone is
//! never pruned even against a catalog that only knows `p`.)

use std::collections::BTreeMap;
use twx_corexpath::ast::{Axis, NodeExpr, PathExpr, Step};
use twx_obs::{self as obs, Counter};
use twx_regxpath::simplify::{is_false, is_true};
use twx_regxpath::{RNode, RPath};
use twx_treeauto::xpath_compile::{compile_simple_budgeted, to_simple, AcceptAt, Simple};
use twx_xtree::Label;

/// Cost caps: the decision procedure is EXPTIME in the worst case, so
/// the pass silently skips formulas whose modal normal form or mentioned
/// label set is large. (Skipping is always sound — pruning is an
/// optimisation, never a requirement.)
const MAX_SIMPLE_SIZE: usize = 48;
const MAX_LABELS: u32 = 8;

/// Rule evaluations one emptiness check may spend before it gives up and
/// keeps its filter. Completing a check over `n` labels that reaches `T`
/// types costs `(T + 1)² · n` evaluations, so this admits 44 types over
/// two labels (the largest check in this module's tests needs 36) and
/// stops `down*[<down[c]> or <down[d]>]` (128 types over three labels,
/// 49,923 evaluations) at a few milliseconds instead of ~80.
pub const MAX_CHECK_STEPS: usize = 4096;

/// Replaces statically-unsatisfiable downward filter/test subexpressions
/// of `p` with `⊥`, bottom-up. Returns the rewritten path; when nothing
/// is prunable the input is returned structurally unchanged.
///
/// Run [`twx_regxpath::simplify_rpath`] on the result to propagate the
/// introduced `⊥`s (the engine's pipeline does exactly that).
pub fn prune_unsat_rpath(p: &RPath) -> RPath {
    match p {
        RPath::Axis(_) | RPath::Eps => p.clone(),
        RPath::Test(f) => RPath::test(prune_filter(f)),
        RPath::Seq(a, b) => prune_unsat_rpath(a).seq(prune_unsat_rpath(b)),
        RPath::Union(a, b) => prune_unsat_rpath(a).union(prune_unsat_rpath(b)),
        RPath::Star(a) => prune_unsat_rpath(a).star(),
        RPath::Filter(a, f) => prune_unsat_rpath(a).filter(prune_filter(f)),
    }
}

/// Prunes inside a filter formula (nested paths may carry their own
/// filters), then decides the formula itself.
fn prune_filter(f: &RNode) -> RNode {
    let f = prune_inside(f);
    if is_false(&f) || trivially_satisfiable(&f) {
        return f;
    }
    if is_unsat_downward(&f) {
        obs::incr(Counter::SimplifyUnsatPruned);
        return RNode::fals();
    }
    f
}

/// Structural recursion into a node expression: nested path expressions
/// are pruned through [`prune_unsat_rpath`] so deeper filters get their
/// own checks.
fn prune_inside(f: &RNode) -> RNode {
    match f {
        RNode::True | RNode::Label(_) => f.clone(),
        RNode::Some(p) => RNode::some(prune_unsat_rpath(p)),
        RNode::Not(g) => prune_inside(g).not(),
        RNode::And(g, h) => prune_inside(g).and(prune_inside(h)),
        RNode::Or(g, h) => prune_inside(g).or(prune_inside(h)),
        RNode::Within(g) => prune_inside(g).within(),
    }
}

/// `⊤` and bare label tests hold at some node of some tree over any
/// alphabet: no automaton is needed to keep them.
fn trivially_satisfiable(f: &RNode) -> bool {
    is_true(f) || matches!(f, RNode::Label(_))
}

/// Exact unsatisfiability for downward-fragment formulas; `false` for
/// anything outside the fragment, beyond the cost caps, or whose check
/// exhausts [`MAX_CHECK_STEPS`].
fn is_unsat_downward(f: &RNode) -> bool {
    let mut labels = BTreeMap::new();
    let Some(converted) = to_downward_node(f, &mut labels) else {
        return false;
    };
    let n_labels = labels.len() as u32 + 1; // + one "any other label"
    if n_labels > MAX_LABELS {
        return false;
    }
    let Ok(simple) = to_simple(&converted) else {
        return false;
    };
    if simple_size(&simple) > MAX_SIMPLE_SIZE {
        return false;
    }
    let Some(auto) =
        compile_simple_budgeted(&simple, n_labels, AcceptAt::SomeNode, MAX_CHECK_STEPS)
    else {
        obs::add(Counter::PruneSteps, MAX_CHECK_STEPS as u64);
        return false;
    };
    obs::add(Counter::PruneSteps, auto.rules.len() as u64);
    auto.tree_emptiness_witness().is_none()
}

fn simple_size(s: &Simple) -> usize {
    match s {
        Simple::True | Simple::Label(_) => 1,
        Simple::SomeChild(g) | Simple::SomeDesc(g) | Simple::Not(g) => 1 + simple_size(g),
        Simple::And(g, h) | Simple::Or(g, h) => 1 + simple_size(g) + simple_size(h),
    }
}

/// Densifies a mentioned label into `0..m` (the automaton alphabet is
/// the mentioned labels plus the representative `m`).
fn dense(l: Label, labels: &mut BTreeMap<Label, u32>) -> Label {
    let next = labels.len() as u32;
    Label(*labels.entry(l).or_insert(next))
}

/// Converts a Regular XPath(W) node expression into the downward
/// fragment of Core XPath, or `None` if it leaves the fragment.
///
/// `W φ` converts to `φ` when `φ` is itself downward: a downward formula
/// is subtree-local, so relativising it to the subtree is the identity.
fn to_downward_node(f: &RNode, labels: &mut BTreeMap<Label, u32>) -> Option<NodeExpr> {
    Some(match f {
        RNode::True => NodeExpr::True,
        RNode::Label(l) => NodeExpr::Label(dense(*l, labels)),
        RNode::Some(p) => NodeExpr::Some(Box::new(to_downward_path(p, labels)?)),
        RNode::Not(g) => NodeExpr::Not(Box::new(to_downward_node(g, labels)?)),
        RNode::And(g, h) => NodeExpr::And(
            Box::new(to_downward_node(g, labels)?),
            Box::new(to_downward_node(h, labels)?),
        ),
        RNode::Or(g, h) => NodeExpr::Or(
            Box::new(to_downward_node(g, labels)?),
            Box::new(to_downward_node(h, labels)?),
        ),
        RNode::Within(g) => to_downward_node(g, labels)?,
    })
}

/// Converts a path expression, keeping only `↓` steps, `ε`, tests,
/// composition, union, filters, and `(↓)*` (which is `. ∪ ↓⁺` in Core
/// XPath). General Kleene stars leave the fragment.
fn to_downward_path(p: &RPath, labels: &mut BTreeMap<Label, u32>) -> Option<PathExpr> {
    Some(match p {
        RPath::Axis(Axis::Down) => PathExpr::Step(Step::axis(Axis::Down)),
        RPath::Axis(_) => return None,
        RPath::Eps => PathExpr::Slf,
        RPath::Test(f) => PathExpr::Filter(
            Box::new(PathExpr::Slf),
            Box::new(to_downward_node(f, labels)?),
        ),
        RPath::Seq(a, b) => PathExpr::Seq(
            Box::new(to_downward_path(a, labels)?),
            Box::new(to_downward_path(b, labels)?),
        ),
        RPath::Union(a, b) => PathExpr::Union(
            Box::new(to_downward_path(a, labels)?),
            Box::new(to_downward_path(b, labels)?),
        ),
        RPath::Star(inner) => match &**inner {
            RPath::Axis(Axis::Down) => PathExpr::star(Axis::Down),
            _ => return None,
        },
        RPath::Filter(a, f) => PathExpr::Filter(
            Box::new(to_downward_path(a, labels)?),
            Box::new(to_downward_node(f, labels)?),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twx_regxpath::eval::eval_rel;
    use twx_regxpath::generate::{random_rpath, RGenConfig};
    use twx_regxpath::parser::parse_rpath_catalog;
    use twx_regxpath::simplify_rpath;
    use twx_xtree::generate::enumerate_trees_up_to;
    use twx_xtree::rng::SplitMix64;
    use twx_xtree::Catalog;

    fn path(s: &str) -> RPath {
        let catalog = Catalog::from_names(["a", "b", "c"]);
        parse_rpath_catalog(s, &catalog).unwrap()
    }

    #[test]
    fn contradictions_are_pruned_to_false() {
        for q in [
            "down[b and !b]",
            "down*[leaf and <down>]",
            "down[<down[b and !b]>]", // nested inside a filter's path
            "down[W(a and b)]",       // unique labelling: a ∧ b unsat
        ] {
            let pruned = simplify_rpath(&prune_unsat_rpath(&path(q)));
            assert!(
                twx_regxpath::simplify::is_empty_path(&pruned),
                "{q} should prune to the empty path, got {pruned:?}"
            );
        }
    }

    #[test]
    fn satisfiable_and_non_downward_filters_survive() {
        for q in [
            "down[b]",
            "down*[!b]",        // unsat only without label headroom: kept
            "down[<up>]",       // non-downward: skipped
            "down[root]",       // root = ¬⟨↑⟩: non-downward, skipped
            "(down/right)*[b]", // general star: filter still checked, kept
        ] {
            let p = path(q);
            let pruned = prune_unsat_rpath(&p);
            assert_eq!(p, pruned, "{q} should be untouched");
        }
    }

    #[test]
    fn within_of_downward_collapses_for_the_check() {
        // W(⟨↓[b]⟩ ∧ ¬⟨↓⟩) is unsat: a node with a b-child but no child
        let pruned = simplify_rpath(&prune_unsat_rpath(&path("down[W(<down[b]> and leaf)]")));
        assert!(twx_regxpath::simplify::is_empty_path(&pruned));
    }

    /// Every check runs under the step budget: a check that completes
    /// reports its exact evaluation count, one that exhausts the budget
    /// reports the budget and keeps its filter.
    #[test]
    fn checks_stop_at_the_step_budget() {
        let catalog = Catalog::from_names(["a", "b", "c", "d"]);
        let steps = |q: &str| {
            let p = simplify_rpath(&parse_rpath_catalog(q, &catalog).unwrap());
            let before = obs::snapshot();
            let pruned = prune_unsat_rpath(&p);
            (
                p,
                pruned,
                obs::delta_since(&before).get(Counter::PruneSteps),
            )
        };
        // the largest check this module's tests need: 36 types, 2 labels
        let (_, pruned, n) = steps("down[W(<down[b]> and leaf)]");
        assert!(twx_regxpath::simplify::is_empty_path(&simplify_rpath(
            &pruned
        )));
        if obs::ENABLED {
            assert_eq!(n, 37 * 37 * 2);
        }
        // one check that would need 141,267 evaluations; then two that
        // would need 49,923 and over 200,000 (the bare-label filters are
        // shortcut)
        for (q, checks) in [
            ("down*[<down[c]> and <down[d]>]", 1),
            ("down*[<down[<down[c]> or <down[d]>]> or <down[a]>]", 2),
        ] {
            let (p, pruned, n) = steps(q);
            assert_eq!(p, pruned, "{q}: an exhausted check keeps its filter");
            if obs::ENABLED {
                assert_eq!(n, checks * MAX_CHECK_STEPS as u64, "{q}");
            }
        }
    }

    fn filters(p: &RPath, out: &mut Vec<RNode>) {
        match p {
            RPath::Axis(_) | RPath::Eps => {}
            RPath::Test(f) => filters_in(f, out),
            RPath::Seq(a, b) | RPath::Union(a, b) => {
                filters(a, out);
                filters(b, out);
            }
            RPath::Star(a) => filters(a, out),
            RPath::Filter(a, f) => {
                filters(a, out);
                filters_in(f, out);
            }
        }
    }

    fn filters_in(f: &RNode, out: &mut Vec<RNode>) {
        out.push(f.clone());
        match f {
            RNode::True | RNode::Label(_) => {}
            RNode::Some(p) => filters(p, out),
            RNode::Not(g) | RNode::Within(g) => filters_in(g, out),
            RNode::And(g, h) | RNode::Or(g, h) => {
                filters_in(g, out);
                filters_in(h, out);
            }
        }
    }

    /// The shortcut never keeps a filter the automaton would prune: every
    /// trivially satisfiable (sub)formula of the random expressions that
    /// `pruning_is_sound` uses has a non-empty, unbudgeted automaton.
    #[test]
    fn trivially_satisfiable_agrees_with_the_automaton() {
        let mut rng = SplitMix64::seed_from_u64(2026);
        let cfg = RGenConfig::default();
        let mut shortcut = 0;
        for _ in 0..30 {
            let mut fs = Vec::new();
            filters(&random_rpath(&cfg, 4, &mut rng), &mut fs);
            for f in fs.iter().filter(|f| trivially_satisfiable(f)) {
                let mut labels = BTreeMap::new();
                let converted = to_downward_node(f, &mut labels).expect("downward");
                let simple = to_simple(&converted).expect("downward");
                let n_labels = labels.len() as u32 + 1;
                let auto = twx_treeauto::xpath_compile::compile_simple(
                    &simple,
                    n_labels,
                    AcceptAt::SomeNode,
                );
                assert!(auto.tree_emptiness_witness().is_some(), "{f:?}");
                shortcut += 1;
            }
        }
        assert!(shortcut > 0, "the random formulas exercise the shortcut");
    }

    /// Pruning is semantics-preserving on bounded domains, fuzzed over
    /// random Regular XPath(W) expressions (seeded, deterministic).
    #[test]
    fn pruning_is_sound() {
        let trees = enumerate_trees_up_to(4, 2);
        let mut rng = SplitMix64::seed_from_u64(2026);
        let cfg = RGenConfig::default();
        for _ in 0..30 {
            let p = random_rpath(&cfg, 4, &mut rng);
            let pruned = prune_unsat_rpath(&p);
            for t in &trees {
                assert_eq!(
                    eval_rel(t, &p),
                    eval_rel(t, &pruned),
                    "unsound prune {p:?} → {pruned:?}"
                );
            }
        }
    }
}
