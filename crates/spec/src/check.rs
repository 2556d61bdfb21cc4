//! The static diagnostics pass over a parsed [`Spec`].
//!
//! Runs after [`parse`](crate::parse) and before
//! [`lower`](crate::lower)ing; everything here is decidable from the
//! AST alone (no [`Binder`](crate::Binder) needed), so a spec can be
//! linted by tooling that knows nothing about the host system.
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | `undeclared-action` | error | a set expression mentions an action outside the `actions` declaration |
//! | `contradictory-bounds` | warning | `b_l > b_u`: no event can ever satisfy the bound (lowering also fails) |
//! | `zero-upper` | warning | `b_u = 0`: the deadline coincides with the trigger (lowering also fails) |
//! | `vacuous-trigger` | warning | no trigger clause, or a statically empty trigger set: the condition never opens |
//! | `vacuous-pi` | warning | no `pi` clause, or a statically empty `Π` set: no event can serve the bound |
//! | `duplicate-name` | warning | two conditions (or two declared actions) share a name |
//! | `unused-action` | warning | a declared action appears in no condition |
//! | `exact-engine` | warning | the bounds share no u64 tick grid: monitors fall back to the exact-rational engine |

use std::collections::HashSet;

use tempo_math::{Rat, TimeScale};

use crate::ast::{BoundLit, Spec};
use crate::span::{Diagnostic, Span};

/// Lints `spec`, returning every finding ordered by source position.
///
/// Errors (currently only `undeclared-action`) make the spec
/// uncompilable by policy; warnings flag conditions that compile but
/// cannot mean what their author intended. The two bounds warnings are
/// special: [`lower`](crate::lower) *also* fails on them, because the
/// engine's [`Interval`](tempo_math::Interval) cannot represent an
/// empty or zero-width-at-zero bound.
pub fn check(spec: &Spec) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Duplicate condition names: the engine tolerates them (conditions
    // are indexed), but hot reload carries obligations across revisions
    // *by name*, so a duplicate makes the carry ambiguous.
    let mut cond_names: Vec<&str> = Vec::new();
    for c in &spec.conds {
        if cond_names.contains(&c.name.text.as_str()) {
            out.push(Diagnostic::warning(
                "duplicate-name",
                c.name.span,
                format!("condition `{}` is declared more than once", c.name.text),
            ));
        }
        cond_names.push(&c.name.text);
    }

    let declared: Option<Vec<&str>> = spec
        .actions
        .as_ref()
        .map(|d| d.names.iter().map(|n| n.text.as_str()).collect());
    if let Some(decl) = &spec.actions {
        for (i, n) in decl.names.iter().enumerate() {
            if decl.names[..i].iter().any(|m| m.text == n.text) {
                out.push(Diagnostic::warning(
                    "duplicate-name",
                    n.span,
                    format!("action `{}` is declared more than once", n.text),
                ));
            }
        }
    }

    let mut used: HashSet<&str> = HashSet::new();
    for c in &spec.conds {
        let exprs = [
            c.step.as_ref().map(|t| &t.expr),
            c.pi.as_ref(),
            match &c.disable {
                Some(crate::ast::DisableClause::On(e, _)) => Some(e),
                _ => None,
            },
        ];
        for expr in exprs.into_iter().flatten() {
            for lit in expr.literals() {
                used.insert(lit.text.as_str());
                if let Some(decl) = &declared {
                    if !decl.contains(&lit.text.as_str()) {
                        out.push(Diagnostic::error(
                            "undeclared-action",
                            lit.span,
                            format!(
                                "action `{}` is not in the spec's `actions` declaration",
                                lit.text
                            ),
                        ));
                    }
                }
            }
        }

        if let BoundLit::Finite(hi) = c.bounds.hi {
            if c.bounds.lo.value > hi.value {
                out.push(Diagnostic::warning(
                    "contradictory-bounds",
                    c.bounds.span,
                    format!(
                        "lower bound {} exceeds upper bound {}: the condition can never be satisfied",
                        c.bounds.lo.value, hi.value
                    ),
                ));
            } else if hi.value == Rat::ZERO {
                out.push(Diagnostic::warning(
                    "zero-upper",
                    hi.span,
                    "upper bound 0 leaves no time to serve the deadline".to_string(),
                ));
            }
        }

        let triggers_at_start = c.start.is_some();
        let triggers_on_step = c
            .step
            .as_ref()
            .is_some_and(|t| !t.expr.is_statically_empty());
        if !triggers_at_start && !triggers_on_step {
            out.push(Diagnostic::warning(
                "vacuous-trigger",
                c.name.span,
                format!(
                    "condition `{}` has an empty trigger set and can never open",
                    c.name.text
                ),
            ));
        }

        let pi_can_fire = c.pi.as_ref().is_some_and(|e| !e.is_statically_empty());
        if !pi_can_fire {
            let span = c.pi.as_ref().map_or(c.name.span, |e| e.span());
            out.push(Diagnostic::warning(
                "vacuous-pi",
                span,
                format!(
                    "condition `{}` has an empty Π set: no event can serve its bound",
                    c.name.text
                ),
            ));
        }
    }

    // Whether the bounds admit a common u64 tick grid decides which time
    // domain the engine's stepper starts streams in (see tempo-core's
    // `CompiledConditionSet::int_capable`): every shipped spec is
    // expected to run on ticks, so losing them — usually to one
    // outsized bound whose scaled value overflows u64 — is worth a lint
    // even though the spec still compiles and runs on exact rationals.
    let bound_vals: Vec<(Rat, Span)> = spec
        .conds
        .iter()
        .flat_map(|c| {
            let lo = Some((c.bounds.lo.value, c.bounds.lo.span));
            let hi = match &c.bounds.hi {
                BoundLit::Finite(h) => Some((h.value, h.span)),
                BoundLit::Inf(_) => None,
            };
            [lo, hi].into_iter().flatten()
        })
        .collect();
    if TimeScale::for_values(bound_vals.iter().map(|(v, _)| *v)).is_none() {
        // Point at the first bound whose addition breaks the grid (the
        // shortest failing prefix), not at the whole spec.
        let mut at = bound_vals.len() - 1;
        for i in 1..=bound_vals.len() {
            if TimeScale::for_values(bound_vals[..i].iter().map(|(v, _)| *v)).is_none() {
                at = i - 1;
                break;
            }
        }
        let (v, span) = bound_vals[at];
        out.push(Diagnostic::warning(
            "exact-engine",
            span,
            format!(
                "bound {v} does not fit the shared u64 tick grid; \
                 monitors will run this spec on the exact-rational engine"
            ),
        ));
    }

    if let Some(decl) = &spec.actions {
        for n in &decl.names {
            if !used.contains(n.text.as_str()) {
                out.push(Diagnostic::warning(
                    "unused-action",
                    n.span,
                    format!("declared action `{}` is used by no condition", n.text),
                ));
            }
        }
    }

    out.sort_by_key(|d| (d.span.start, d.span.end));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn codes(src: &str) -> Vec<&'static str> {
        check(&parse(src).unwrap()).iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_spec_has_no_findings() {
        let src = "spec s; actions GO, DONE; \
            cond C { trigger on GO; pi DONE; bounds [1, 5]; }";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn contradictory_and_zero_bounds_warn() {
        assert_eq!(
            codes("spec s; cond C { trigger on A; pi B; bounds [5, 1]; }"),
            vec!["contradictory-bounds"]
        );
        assert_eq!(
            codes("spec s; cond C { trigger on A; pi B; bounds [0, 0]; }"),
            vec!["zero-upper"]
        );
        // inf can contradict nothing.
        assert!(codes("spec s; cond C { trigger on A; pi B; bounds [99, inf]; }").is_empty());
    }

    #[test]
    fn vacuous_conditions_warn() {
        let src = "spec s; cond C { pi A; bounds [0, 5]; }";
        assert_eq!(codes(src), vec!["vacuous-trigger"]);
        let src = "spec s; cond C { trigger on none; pi A; bounds [0, 5]; }";
        assert_eq!(codes(src), vec!["vacuous-trigger"]);
        let src = "spec s; cond C { trigger on A; bounds [0, 5]; }";
        assert_eq!(codes(src), vec!["vacuous-pi"]);
        let src = "spec s; cond C { trigger on A; pi not any; bounds [0, 5]; }";
        assert_eq!(codes(src), vec!["vacuous-pi"]);
        // A start trigger suffices.
        let src = "spec s; cond C { trigger at start; pi A; bounds [0, 5]; }";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn duplicate_names_warn_on_the_second_occurrence() {
        let src = "spec s;\n\
            cond C { trigger on A; pi B; bounds [0, 5]; }\n\
            cond C { trigger on A; pi B; bounds [0, 5]; }";
        let spec = parse(src).unwrap();
        let d = &check(&spec)[0];
        assert_eq!(d.code, "duplicate-name");
        assert_eq!(d.span, spec.conds[1].name.span);
    }

    #[test]
    fn action_declarations_are_enforced() {
        let src = "spec s; actions GO, DONE, SPARE; \
            cond C { trigger on GO; pi DONE | OOPS; bounds [0, 5]; }";
        let spec = parse(src).unwrap();
        let findings = check(&spec);
        let codes: Vec<_> = findings.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["unused-action", "undeclared-action"]);
        assert!(findings[1].is_error());
        assert_eq!(findings[1].span.slice(src), "OOPS");
        assert_eq!(findings[0].span.slice(src), "SPARE");
        // Without a declaration, nothing is undeclared.
        let src = "spec s; cond C { trigger on GO; pi OOPS; bounds [0, 5]; }";
        assert!(codes_of(src).is_empty());
    }

    fn codes_of(src: &str) -> Vec<&'static str> {
        codes(src)
    }

    #[test]
    fn unscalable_bounds_warn_exact_engine() {
        // Alone, each bound fits a u64 tick grid; the shared grid
        // (denominator 6) pushes the upper bound past u64::MAX, so the
        // warning points at the bound whose addition breaks the grid.
        let src = "spec s; cond C { trigger on A; pi B; \
            bounds [1/3, 9223372036854775807/2]; }";
        let spec = parse(src).unwrap();
        let findings = check(&spec);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, "exact-engine");
        assert_eq!(findings[0].span.slice(src), "9223372036854775807/2");
        // Grid-friendly rationals stay clean.
        assert!(codes("spec s; cond C { trigger on A; pi B; bounds [1/2, 3/4]; }").is_empty());
    }
}
