//! Property-based tests for the thermal model: physical invariants that
//! must hold for any power assignment.

use proptest::prelude::*;
use protemp_floorplan::{niagara::niagara8, Stack};
use protemp_thermal::{
    stability_limit, AffineReach, DiscreteModel, IntegrationMethod, RcNetwork, ThermalConfig,
};

fn net() -> RcNetwork {
    RcNetwork::from_floorplan(&niagara8(), &ThermalConfig::default())
}

fn core_powers() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0..4.0f64, 8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Steady-state temperatures are monotone in power: adding power
    /// anywhere heats everything (the conductance matrix is an M-matrix).
    #[test]
    fn steady_state_monotone_in_power(p in core_powers(), extra in 0.1..2.0f64, which in 0usize..8) {
        let net = net();
        let mut blocks = net.uncore_power().to_vec();
        for (j, &c) in net.core_nodes().iter().enumerate() {
            blocks[c] = p[j];
        }
        let base = net.steady_state(&blocks).unwrap();
        let core = net.core_nodes()[which];
        blocks[core] += extra;
        let more = net.steady_state(&blocks).unwrap();
        for (a, b) in more.iter().zip(&base) {
            prop_assert!(*a >= *b - 1e-9, "heating one core cools nothing");
        }
        prop_assert!(more[core] > base[core], "the heated core itself warms");
    }

    /// Superposition: the temperature *rise* above ambient is linear in
    /// power, so rise(p1 + p2) = rise(p1) + rise(p2).
    #[test]
    fn steady_state_superposition(p1 in core_powers(), p2 in core_powers()) {
        let mut net = net();
        net.set_uncore_power_budget(&Stack::single(niagara8()), 0.0);
        let amb = net.ambient_c();
        let mk = |p: &[f64], net: &RcNetwork| {
            let mut blocks = vec![0.0; net.num_blocks()];
            for (j, &c) in net.core_nodes().iter().enumerate() {
                blocks[c] = p[j];
            }
            net.steady_state(&blocks).unwrap()
        };
        let a = mk(&p1, &net);
        let b = mk(&p2, &net);
        let sum_p: Vec<f64> = p1.iter().zip(&p2).map(|(x, y)| x + y).collect();
        let ab = mk(&sum_p, &net);
        for i in 0..net.num_nodes() {
            let lhs = ab[i] - amb;
            let rhs = (a[i] - amb) + (b[i] - amb);
            prop_assert!((lhs - rhs).abs() < 1e-6, "node {i}: {lhs} vs {rhs}");
        }
    }

    /// The forward-Euler trajectory converges to the analytic steady state.
    #[test]
    fn trajectory_approaches_steady_state(p in core_powers()) {
        let net = net();
        let mut blocks = net.uncore_power().to_vec();
        for (j, &c) in net.core_nodes().iter().enumerate() {
            blocks[c] = p[j];
        }
        let ss = net.steady_state(&blocks).unwrap();
        let model = DiscreteModel::new(&net, 1e-3, IntegrationMethod::BackwardEuler).unwrap();
        let u = net.input_vector(&blocks).unwrap();
        // Start AT the steady state: it must be (numerically) a fixed point.
        let after = model.simulate(&ss, &u, 200);
        for (a, s) in after.iter().zip(&ss) {
            prop_assert!((a - s).abs() < 1e-6);
        }
    }

    /// Reach-based prediction equals step-by-step simulation for any power.
    #[test]
    fn reach_matches_simulation(p in core_powers(), t0 in 40.0..95.0f64) {
        let net = net();
        let model = DiscreteModel::new(&net, 0.4e-3, IntegrationMethod::ForwardEuler).unwrap();
        let reach = AffineReach::new(&net, &model, 25).unwrap();
        let offs = reach.offsets(&net.uniform_state(t0));
        let mut blocks = net.uncore_power().to_vec();
        for (j, &c) in net.core_nodes().iter().enumerate() {
            blocks[c] = p[j];
        }
        let u = net.input_vector(&blocks).unwrap();
        let mut state = net.uniform_state(t0);
        for k in 1..=25 {
            state = model.step(&state, &u);
            let pred = reach.predict(k, &p, &offs);
            for (j, &core) in net.core_nodes().iter().enumerate() {
                prop_assert!((pred[j] - state[core]).abs() < 1e-9);
            }
        }
    }

    /// All temperatures stay between ambient and the hottest steady state
    /// when starting from ambient (no overshoot for this system class).
    #[test]
    fn no_overshoot_from_ambient(p in core_powers()) {
        let net = net();
        let mut blocks = net.uncore_power().to_vec();
        for (j, &c) in net.core_nodes().iter().enumerate() {
            blocks[c] = p[j];
        }
        let ss = net.steady_state(&blocks).unwrap();
        let model = DiscreteModel::new(&net, 0.4e-3, IntegrationMethod::ForwardEuler).unwrap();
        let u = net.input_vector(&blocks).unwrap();
        let mut state = net.uniform_state(net.ambient_c());
        for _ in 0..500 {
            state = model.step(&state, &u);
            for (i, t) in state.iter().enumerate() {
                prop_assert!(*t >= net.ambient_c() - 1e-9, "node {i} below ambient");
                prop_assert!(*t <= ss[i] + 1e-6, "node {i} overshoots steady state");
            }
        }
    }
}

#[test]
fn stability_limit_is_sharp() {
    // Just below the limit: bounded; just above: divergence.
    let net = net();
    let limit = stability_limit(&net).unwrap();
    let u = net.input_vector(&net.full_power_vector(4.0)).unwrap();

    let ok = DiscreteModel::new(&net, limit * 0.95, IntegrationMethod::ForwardEuler).unwrap();
    let t = ok.simulate(&net.uniform_state(47.0), &u, 4000);
    assert!(t.iter().all(|x| x.is_finite() && *x < 300.0));

    // Above the limit the constructor refuses; build the same matrix via
    // backward Euler to confirm *that* one is fine at any step.
    assert!(DiscreteModel::new(&net, limit * 1.1, IntegrationMethod::ForwardEuler).is_err());
    let be = DiscreteModel::new(&net, limit * 10.0, IntegrationMethod::BackwardEuler).unwrap();
    let t = be.simulate(&net.uniform_state(47.0), &u, 1000);
    assert!(t.iter().all(|x| x.is_finite() && *x < 300.0));
}
