//! Quickstart: decompose a dense tensor with 2PCP in a dozen lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tpcp_datasets::low_rank_dense;
use twopcp::{EnvOverrides, TwoPcp, TwoPcpConfig};

fn main() {
    // `TPCP_*` knobs (README, "Environment variables") set the defaults.
    let env = EnvOverrides::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    // A 32×32×32 dense tensor with hidden rank-4 structure plus noise.
    let x = low_rank_dense(&[32, 32, 32], 4, 0.05, 42);
    println!(
        "input: {:?} ({} cells, {:.0}% non-zero)",
        x.dims(),
        x.len(),
        100.0 * x.nnz() as f64 / x.len() as f64
    );

    // Rank-4 decomposition over a 2×2×2 block grid. With the default
    // in-memory store and a full-size buffer this is the "everything
    // fits" configuration; see the `out_of_core` example for the
    // disk-backed one. Invalid settings (zero rank, empty grids and the
    // like) come back as a config error before phase 1 starts.
    let config = env.apply(TwoPcpConfig::new(4)).parts(vec![2]).seed(1);
    let outcome = TwoPcp::new(config)
        .decompose_dense(&x)
        .expect("decomposition failed");

    // Under `TPCP_COMPRESS=1` the driver replaces both phases with the
    // compressed pipeline (see docs/compress.md), so the two-phase stats
    // are empty — report the compression provenance instead.
    if let Some(c) = &outcome.compress {
        println!(
            "compressed: mlrank {:?} core {:?} in {:?} ({:.1}% energy retained)",
            c.mlrank,
            c.core_shape,
            outcome.phase1_time + outcome.phase2_time,
            100.0 * c.energy,
        );
    } else {
        println!(
            "phase 1: {} blocks decomposed in {:?} (mean block fit {:.4})",
            outcome.phase1.grid.num_blocks(),
            outcome.phase1_time,
            outcome.phase1.block_fits.iter().sum::<f64>() / outcome.phase1.block_fits.len() as f64,
        );
        println!(
            "phase 2: {} virtual iterations in {:?} (converged: {})",
            outcome.phase2.virtual_iterations, outcome.phase2_time, outcome.phase2.converged,
        );
    }
    println!("accuracy (1 - relative error): {:.4}", outcome.fit);

    // The model is a standard weighted CP decomposition.
    let model = &outcome.model;
    println!(
        "model: rank {} over modes {:?}, component weights {:?}",
        model.rank(),
        model.dims(),
        model
            .weights
            .iter()
            .map(|w| format!("{w:.2}"))
            .collect::<Vec<_>>(),
    );
}
