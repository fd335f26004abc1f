//! Ensemble-simulation analysis: the paper's motivating scenario
//! (§I footnote 2 — dense tensors from parameter-sweep simulations).
//!
//! An ensemble tensor maps each combination of input parameters to a
//! simulation output. CP decomposition factors that response surface into
//! per-parameter profiles, revealing which parameter settings drive each
//! dominant behaviour mode.
//!
//! ```sh
//! cargo run --release --example ensemble_analysis
//! ```

use tpcp_datasets::ensemble_like;
use twopcp::{EnvOverrides, TwoPcp, TwoPcpConfig};

fn main() {
    let env = EnvOverrides::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    // Three swept parameters (say: temperature, pressure, humidity), each
    // sampled at 24 points; the cell holds the simulation output.
    let params = ["temperature", "pressure", "humidity"];
    let x = ensemble_like(&[24, 24, 24], 3, 0.02, 11);
    println!(
        "ensemble tensor: {:?} = {} simulation runs",
        x.dims(),
        x.len()
    );

    let outcome = TwoPcp::new(
        env.apply(TwoPcpConfig::new(3))
            .parts(vec![2])
            .max_virtual_iters(60)
            .tol(1e-4)
            .seed(3),
    )
    .decompose_dense(&x)
    .expect("decomposition failed");

    println!("decomposition accuracy: {:.4}\n", outcome.fit);

    // Rank components ordered by weight = dominant response modes.
    let model = &outcome.model;
    let mut comp_order: Vec<usize> = (0..model.rank()).collect();
    comp_order.sort_by(|&a, &b| model.weights[b].total_cmp(&model.weights[a]));

    for (rank_pos, &f) in comp_order.iter().enumerate() {
        println!(
            "component #{} (weight {:.2}):",
            rank_pos + 1,
            model.weights[f]
        );
        for (mode, name) in params.iter().enumerate() {
            let factor = &model.factors[mode];
            // Where along this parameter axis does the component peak?
            let (argmax, max) = (0..factor.rows())
                .map(|r| (r, factor.get(r, f).abs()))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty factor");
            println!("  {name:<12} peaks at sample {argmax:>2}/24 (|loading| {max:.3})");
        }
    }
    println!(
        "\nEach component is a separable response surface; the peaks say\n\
         which parameter regions drive that behaviour mode."
    );
}
