//! Cross-validation of the lumped block model against a grid-refined model
//! (the HotSpot block-vs-grid comparison): refining the floorplan must not
//! change the physics, only the spatial resolution.

use protemp_floorplan::{niagara::niagara8, Floorplan, Stack};
use protemp_thermal::{stability_limit, RcNetwork, ThermalConfig};

/// Builds the block-power vector for a refined floorplan by splitting each
/// parent block's power uniformly over its children.
fn refined_powers(coarse: &Floorplan, fine: &Floorplan, coarse_powers: &[f64]) -> Vec<f64> {
    fine.blocks()
        .iter()
        .map(|b| {
            let parent = Floorplan::parent_of(b.name());
            let pi = coarse.index_of(parent).expect("parent exists");
            let children = fine
                .blocks()
                .iter()
                .filter(|c| Floorplan::parent_of(c.name()) == parent)
                .count();
            coarse_powers[pi] / children as f64
        })
        .collect()
}

#[test]
fn refined_steady_state_matches_block_model() {
    let coarse = niagara8();
    let fine = coarse.refine(2, 2);
    fine.validate().unwrap();

    let cfg = ThermalConfig::default();
    let net_c = RcNetwork::from_floorplan(&coarse, &cfg);
    let mut net_f = RcNetwork::from_floorplan(&fine, &cfg);
    // Align the uncore budget (it is block-count independent, but the
    // by-area split must match the refined geometry).
    net_f.set_uncore_power_budget(&Stack::single(fine.clone()), 9.6);

    let p_coarse = net_c.full_power_vector(3.0);
    let p_fine = refined_powers(&coarse, &fine, &p_coarse);

    let t_c = net_c.steady_state(&p_coarse).unwrap();
    let t_f = net_f.steady_state(&p_fine).unwrap();

    // Compare each coarse block's temperature with the mean of its
    // children. The refined model resolves intra-block spreading that the
    // lumped model approximates (centre-to-centre lateral resistances), so
    // a few degrees of discretization difference on a ~70 K rise is
    // expected — but the models must agree on the overall field.
    for (i, b) in coarse.blocks().iter().enumerate() {
        let children: Vec<f64> = fine
            .blocks()
            .iter()
            .enumerate()
            .filter(|(_, c)| Floorplan::parent_of(c.name()) == b.name())
            .map(|(j, _)| t_f[j])
            .collect();
        let mean = children.iter().sum::<f64>() / children.len() as f64;
        let rise_c = t_c[i] - net_c.ambient_c();
        let rise_f = mean - net_c.ambient_c();
        assert!(
            (rise_f - rise_c).abs() < 0.08 * rise_c.max(10.0),
            "block {}: coarse {:.2} C vs refined mean {:.2} C",
            b.name(),
            t_c[i],
            mean
        );
    }
}

#[test]
fn refinement_preserves_total_heat_balance() {
    // Total heat flowing to ambient equals total injected power in both
    // resolutions (steady-state energy conservation).
    let coarse = niagara8();
    let fine = coarse.refine(3, 3);
    let cfg = ThermalConfig::default();

    for (fp, label) in [(&coarse, "coarse"), (&fine, "fine")] {
        let net = RcNetwork::from_floorplan(fp, &cfg);
        let powers = net.full_power_vector(2.0);
        let total_in: f64 = powers.iter().sum::<f64>();
        let t = net.steady_state(&powers).unwrap();
        // Heat to ambient = (T_sink − T_amb) / R_conv.
        let sink = t[net.num_nodes() - 1];
        let out = (sink - net.ambient_c()) / cfg.r_convection;
        assert!(
            (out - total_in).abs() < 1e-6 * total_in.max(1.0),
            "{label}: in {total_in:.4} W vs out {out:.4} W"
        );
    }
}

#[test]
fn refined_model_remains_stable_at_paper_step() {
    let fine = niagara8().refine(2, 2);
    let net = RcNetwork::from_floorplan(&fine, &ThermalConfig::default());
    let limit = stability_limit(&net).unwrap();
    assert!(
        limit > 0.4e-3,
        "refined model must stay forward-Euler stable at 0.4 ms, limit {limit:.2e}"
    );
}
