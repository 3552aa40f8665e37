//! `determinism`: the adjustment policy must be a pure function of the
//! trace.
//!
//! *Toward Demand-Aware Networking* makes determinism of the
//! self-adjusting policy part of the model, and the whole differential
//! test architecture (threaded ≡ sequential, sharded ≡ unsharded)
//! depends on it. The two nondeterminism vectors available to this
//! workspace are hash-iteration order and wall clocks, so this pass
//! flags, in every `Core` crate:
//!
//! 1. iteration over identifiers bound to `HashMap`/`HashSet` (`for`
//!    loops and `.iter()/.keys()/.values()/.drain()/...` calls) — the
//!    bug class `DecayingDemand`'s canonical row-major iteration exists
//!    to avoid. Commutative folds that provably don't depend on visit
//!    order stay allowed via `// ksan-allow: determinism <why the fold
//!    is order-free>`;
//! 2. `Instant`/`SystemTime` reads — wall-clock values must never feed
//!    cost accounting (bench harnesses live outside `Core` scope).

use crate::lexer::TokKind;
use crate::parse::{FileClass, Model};
use crate::report::Finding;

/// Lint id.
pub const ID: &str = "determinism";

/// Iterator-producing (or order-sensitive) methods on hash containers.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Runs the lint over the model.
pub fn run(model: &Model, out: &mut Vec<Finding>) {
    for file in &model.files {
        if file.class != FileClass::Core {
            continue;
        }
        let toks = &file.lx.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || file.in_cfg_test(t.line) {
                continue;
            }
            // Wall clocks.
            if t.text == "Instant" || t.text == "SystemTime" {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: t.line,
                    lint: ID,
                    message: format!(
                        "`{}` read in cost-feeding code — wall clocks are nondeterministic",
                        t.text
                    ),
                });
                continue;
            }
            if file.hash_bound.is_empty() {
                continue;
            }
            // `recv.iter()`-style calls on a hash-bound receiver.
            if ITER_METHODS.contains(&t.text.as_str())
                && i >= 2
                && toks[i - 1].kind == TokKind::Punct
                && toks[i - 1].text == "."
                && toks[i - 2].kind == TokKind::Ident
                && file.hash_bound.contains(&toks[i - 2].text)
                && i + 1 < toks.len()
                && toks[i + 1].kind == TokKind::Punct
                && toks[i + 1].text == "("
            {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: t.line,
                    lint: ID,
                    message: format!(
                        "`.{}()` on hash container `{}` — iteration order is nondeterministic",
                        t.text,
                        toks[i - 2].text
                    ),
                });
                continue;
            }
            // `for pat in <expr containing a hash-bound name> {`.
            if t.text == "for" {
                if let Some((line, name)) = for_loop_over_hash(file, toks, i) {
                    out.push(Finding {
                        file: file.rel.clone(),
                        line,
                        lint: ID,
                        message: format!(
                            "`for` loop over hash container `{name}` — iteration order is nondeterministic"
                        ),
                    });
                }
            }
        }
    }
}

/// If the `for` at token `i` is a loop whose iterated expression
/// mentions a hash-bound identifier, returns the loop line and the name.
/// Distinguishes `impl Trait for Type` (no `in` before the body brace)
/// and HRTB `for<'a>` (immediate `<`).
fn for_loop_over_hash(
    file: &crate::parse::SourceFile,
    toks: &[crate::lexer::Tok],
    i: usize,
) -> Option<(u32, String)> {
    let mut j = i + 1;
    if j < toks.len() && toks[j].kind == TokKind::Punct && toks[j].text == "<" {
        return None; // for<'a> bound
    }
    // Find `in` at paren/bracket depth 0 before the body `{`.
    let (mut pd, mut bd) = (0i32, 0i32);
    let mut in_idx = None;
    while j < toks.len() {
        let s = &toks[j];
        match (s.kind, s.text.as_str()) {
            (TokKind::Punct, "(") => pd += 1,
            (TokKind::Punct, ")") => pd -= 1,
            (TokKind::Punct, "[") => bd += 1,
            (TokKind::Punct, "]") => bd -= 1,
            (TokKind::Punct, "{") if pd == 0 && bd == 0 => break,
            (TokKind::Ident, "in") if pd == 0 && bd == 0 => {
                in_idx = Some(j);
                break;
            }
            _ => {}
        }
        j += 1;
    }
    let start = in_idx? + 1;
    // Scan the iterated expression up to the body `{`.
    let (mut pd, mut bd) = (0i32, 0i32);
    let mut k = start;
    while k < toks.len() {
        let s = &toks[k];
        match (s.kind, s.text.as_str()) {
            (TokKind::Punct, "(") => pd += 1,
            (TokKind::Punct, ")") => pd -= 1,
            (TokKind::Punct, "[") => bd += 1,
            (TokKind::Punct, "]") => bd -= 1,
            (TokKind::Punct, "{") if pd == 0 && bd == 0 => break,
            (TokKind::Ident, name) if file.hash_bound.iter().any(|h| h == name) => {
                return Some((toks[i].line, name.to_string()));
            }
            _ => {}
        }
        k += 1;
    }
    None
}
