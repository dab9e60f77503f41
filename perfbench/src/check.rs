//! The output check every returned mapping must pass.

use evematch_core::{score, Mapping, MatchContext};

/// How far a reported score may lie from its rescoring: the bound the
/// solvers' own unit tests assert. The solvers add the pattern distances
/// up in search order rather than pattern order, so the last bits of the
/// two sums can differ; `check_mapping` reports when they do.
pub const SCORE_TOLERANCE: f64 = 1e-9;

/// Checks that `mapping` is a complete, injective mapping `V1 → V2` of
/// `ctx`, and that `reported` — the score the solver returned with it — is
/// `score::pattern_normal_distance(ctx, mapping)` within
/// [`SCORE_TOLERANCE`]. Returns whether the two scores are equal to the
/// f64 bit.
pub fn check_mapping(ctx: &MatchContext, mapping: &Mapping, reported: f64) -> Result<bool, String> {
    if mapping.source_len() != ctx.n1() || mapping.target_len() != ctx.n2() {
        return Err(format!(
            "mapping spans {}x{} events, context {}x{}",
            mapping.source_len(),
            mapping.target_len(),
            ctx.n1(),
            ctx.n2()
        ));
    }
    let mut used = vec![false; ctx.n2()];
    let mut mapped = 0;
    for (_, b) in mapping.pairs() {
        match used.get_mut(b.index()) {
            Some(slot) if !*slot => *slot = true,
            _ => {
                return Err(format!(
                    "target {} is used twice or out of range",
                    b.index()
                ))
            }
        }
        mapped += 1;
    }
    if mapped != ctx.n1() {
        return Err(format!("mapping covers {mapped} of {} events", ctx.n1()));
    }
    let rescored = score::pattern_normal_distance(ctx, mapping);
    // Written so that a NaN on either side fails.
    let within = (reported - rescored).abs() <= SCORE_TOLERANCE;
    if !within {
        return Err(format!(
            "reported score {reported:?} differs from the rescored {rescored:?}"
        ));
    }
    Ok(rescored.to_bits() == reported.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use evematch_core::{AdvancedHeuristic, BoundKind, PatternSetBuilder};
    use evematch_datagen::datasets;

    #[test]
    fn a_solver_output_passes_and_an_injected_wrong_score_fails() {
        let ds = datasets::fig1_like();
        let ctx = MatchContext::new(
            ds.pair.log1.clone(),
            ds.pair.log2.clone(),
            PatternSetBuilder::new()
                .vertices()
                .edges()
                .complex_all(ds.patterns.clone()),
        )
        .expect("fig1 pair has |V1| <= |V2|");
        let out = AdvancedHeuristic::new(BoundKind::Tight).solve(&ctx);
        check_mapping(&ctx, &out.mapping, out.score).expect("solver output is valid");

        let rescored = score::pattern_normal_distance(&ctx, &out.mapping);
        let one_ulp_off = f64::from_bits(rescored.to_bits() + 1);
        assert_eq!(check_mapping(&ctx, &out.mapping, rescored), Ok(true));
        assert_eq!(check_mapping(&ctx, &out.mapping, one_ulp_off), Ok(false));
        for wrong in [out.score + 1e-6, out.score - 0.5, f64::NAN] {
            let err = check_mapping(&ctx, &out.mapping, wrong).expect_err("wrong score");
            assert!(err.contains("reported score"), "{err}");
        }

        let mut partial = out.mapping.clone();
        let (first, _) = partial.pairs().next().expect("non-empty mapping");
        partial.remove(first);
        assert!(check_mapping(&ctx, &partial, out.score).is_err());
    }
}
