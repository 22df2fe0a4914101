//! Threshold calibration: choosing `alpha` so that a fixed share of the
//! columns is uncertain after Phase 1, and fixing how those columns are
//! spread over tables.
//!
//! With `beta = 1.0` a column is uncertain exactly when its largest P1
//! probability `pmax` exceeds `alpha` (`infer_phase1`: `alpha < p < beta`
//! for some type), so `alpha` is an order statistic of `pmax`.

/// The `alpha` that leaves `want` of the columns with `pmax > alpha`,
/// and the count it really leaves. The two differ only when values tie
/// at the cut: all tied columns stay certain.
pub fn alpha_for_count(pmax: &[f32], want: usize) -> (f32, usize) {
    let mut desc = pmax.to_vec();
    desc.sort_by(|a, b| b.total_cmp(a));
    // The cut sits on the largest value that must not pass. When every
    // column should pass it sits at zero, below any sigmoid output.
    let alpha = desc.get(want).copied().unwrap_or(0.0);
    let got = pmax.iter().filter(|&&p| p > alpha).count();
    (alpha, got)
}

/// How many of `tables` tables of width `width` get `u` uncertain
/// columns, for `u = 0..=width`: the binomial `B(width, share)` pmf
/// scaled to `tables` and rounded by largest remainder, so the counts
/// are the same on every seed and sum to `tables`.
pub fn uncertain_quotas(width: usize, tables: usize, share: f64) -> Vec<usize> {
    let mut pmf = Vec::with_capacity(width + 1);
    let mut choose = 1.0f64;
    for u in 0..=width {
        pmf.push(choose * share.powi(u as i32) * (1.0 - share).powi((width - u) as i32));
        choose = choose * (width - u) as f64 / (u + 1) as f64;
    }
    let exact: Vec<f64> = pmf.iter().map(|p| p * tables as f64).collect();
    let mut quotas: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..=width).collect();
    // Ties go to the smaller `u`; the sort is stable.
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = tables - quotas.iter().sum::<usize>();
    for &u in by_remainder.iter().take(short) {
        quotas[u] += 1;
    }
    quotas
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_share_is_met_exactly_without_ties() {
        let pmax: Vec<f32> = (0..100).map(|i| 0.3 + i as f32 * 0.004).collect();
        let (alpha, got) = alpha_for_count(&pmax, 45);
        assert_eq!(got, 45);
        assert_eq!(pmax.iter().filter(|&&p| p > alpha).count(), 45);
        assert!(alpha > 0.0 && alpha < 1.0);
        assert_eq!(alpha_for_count(&pmax, 0).1, 0);
        assert_eq!(alpha_for_count(&pmax, 100).1, 100);
        assert_eq!(alpha_for_count(&pmax, 1).1, 1);
    }

    #[test]
    fn ties_at_the_cut_fall_on_one_side() {
        // Four values tie at 0.5 around the cut for want = 3.
        let pmax = [0.9, 0.8, 0.5, 0.5, 0.5, 0.5, 0.2];
        let (alpha, got) = alpha_for_count(&pmax, 3);
        assert_eq!(alpha, 0.5);
        assert_eq!(got, 2, "tied columns all stay certain");
    }

    #[test]
    fn all_equal_values_pass_together_or_not_at_all() {
        let pmax = [0.5f32; 8];
        assert_eq!(alpha_for_count(&pmax, 3), (0.5, 0));
        assert_eq!(alpha_for_count(&pmax, 8), (0.0, 8));
        assert_eq!(alpha_for_count(&[], 3).1, 0);
    }

    #[test]
    fn quotas_sum_to_the_table_count_and_follow_the_binomial() {
        let q = uncertain_quotas(5, 9, 0.45);
        assert_eq!(q.iter().sum::<usize>(), 9);
        assert_eq!(q, vec![0, 2, 3, 3, 1, 0]);
        let q = uncertain_quotas(2, 75, 0.45);
        assert_eq!(q.iter().sum::<usize>(), 75);
        // 75 * (0.3025, 0.495, 0.2025) = (22.7, 37.1, 15.2)
        assert_eq!(q, vec![23, 37, 15]);
        assert_eq!(uncertain_quotas(3, 0, 0.45), vec![0, 0, 0, 0]);
    }
}
