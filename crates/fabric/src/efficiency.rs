//! The page-sizing efficiency model: Eq. 1 of the paper (Sec. 4.1).
//!
//! ```text
//!             Σ (operator page use)
//! Eff. = ────────────────────────────────────────────
//!        Σ (page size + leaf interface) + linking net
//! ```
//!
//! "Our network interfaces run about 500 LUTs and the current linking network
//! needs about 500 LUTs per endpoint. As such, we choose about 18,000-LUT
//! pages so that we have around 95% efficiency before considering
//! fragmentation." The `page_sizing` bench regenerates that trade-off curve.

/// Cost parameters of the overlay, in LUTs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyParams {
    /// LUTs of one leaf interface (paper: ~500).
    pub leaf_interface_luts: u64,
    /// Linking-network LUTs per endpoint (paper: ~500).
    pub linking_net_luts_per_endpoint: u64,
}

impl Default for EfficiencyParams {
    fn default() -> Self {
        EfficiencyParams {
            leaf_interface_luts: 500,
            linking_net_luts_per_endpoint: 500,
        }
    }
}

/// Evaluates Eq. 1 for a uniform page size.
///
/// `operator_luts` lists each operator's logic demand; every operator
/// occupies `ceil(demand / page_luts)` pages (an operator bigger than a page
/// must be split, each fragment paying a leaf interface).
///
/// Returns the efficiency in `[0, 1]`.
///
/// # Panics
///
/// Panics if `page_luts` is zero.
pub fn page_efficiency(operator_luts: &[u64], page_luts: u64, params: &EfficiencyParams) -> f64 {
    assert!(page_luts > 0, "page size must be positive");
    let mut use_sum = 0u64;
    let mut denom = 0u64;
    let mut endpoints = 0u64;
    for &demand in operator_luts {
        let pages = demand.div_ceil(page_luts).max(1);
        use_sum += demand;
        denom += pages * (page_luts + params.leaf_interface_luts);
        endpoints += pages;
    }
    denom += endpoints * params.linking_net_luts_per_endpoint;
    if denom == 0 {
        return 0.0;
    }
    use_sum as f64 / denom as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_operating_point_is_about_95_percent() {
        // Operators that fill their pages (the paper's "before considering
        // fragmentation" assumption): one operator per 18k-LUT page.
        let ops = vec![18_000u64; 20];
        let eff = page_efficiency(&ops, 18_000, &EfficiencyParams::default());
        assert!((eff - 0.947).abs() < 0.01, "eff = {eff}");
    }

    #[test]
    fn small_pages_pay_more_overhead() {
        let ops = vec![18_000u64; 20];
        let params = EfficiencyParams::default();
        let small = page_efficiency(&ops, 2_000, &params);
        let big = page_efficiency(&ops, 18_000, &params);
        assert!(small < big);
        assert!(
            small < 0.70,
            "2k pages should be badly inefficient, got {small}"
        );
    }

    #[test]
    fn oversized_pages_fragment_internally() {
        // 6k-LUT operators on 18k pages: two thirds of every page idle.
        let ops = vec![6_000u64; 20];
        let eff = page_efficiency(&ops, 18_000, &EfficiencyParams::default());
        assert!(
            eff < 0.35,
            "internal fragmentation should dominate, got {eff}"
        );
    }

    #[test]
    fn efficiency_bounded_by_one() {
        for page in [1_000u64, 6_000, 18_000, 72_000] {
            let eff = page_efficiency(&[17_000, 9_000, 22_000], page, &EfficiencyParams::default());
            assert!((0.0..=1.0).contains(&eff));
        }
    }

    #[test]
    fn zero_overhead_perfect_packing_is_lossless() {
        let params = EfficiencyParams {
            leaf_interface_luts: 0,
            linking_net_luts_per_endpoint: 0,
        };
        let eff = page_efficiency(&[10_000, 10_000], 10_000, &params);
        assert_eq!(eff, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_page_size_rejected() {
        page_efficiency(&[1], 0, &EfficiencyParams::default());
    }
}
