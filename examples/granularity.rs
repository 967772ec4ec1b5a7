//! Compare the parallelism granularities (paper Figure 1/Table I) on one
//! workload, verifying they compute identical structures.
//!
//! ```sh
//! cargo run --release --example granularity
//! ```

use fastbn::prelude::*;
use std::time::Instant;

fn main() {
    let net = fastbn::network::zoo::by_name("insurance", 5).expect("zoo network");
    let data = net.sample_dataset(3000, 21);
    println!(
        "workload: {} ({} nodes), {} samples\n",
        net.name(),
        net.n(),
        data.n_samples()
    );

    let seq = PcStable::new(PcConfig::fast_bns_seq()).learn(&data);
    println!("sequential reference: {:?}", seq.stats().skeleton_duration);

    println!(
        "\n{:<14} {:>8} {:>12} {:>10}",
        "mode", "threads", "time", "speedup"
    );
    for mode in [
        ParallelMode::CiLevel,
        ParallelMode::EdgeLevel,
        ParallelMode::SampleLevel,
    ] {
        for threads in [1usize, 2] {
            let cfg = PcConfig::fast_bns().with_mode(mode).with_threads(threads);
            let started = Instant::now();
            let result = PcStable::new(cfg).learn(&data);
            let elapsed = started.elapsed();
            assert_eq!(
                result.skeleton(),
                seq.skeleton(),
                "all granularities must learn the same skeleton"
            );
            assert_eq!(result.cpdag(), seq.cpdag());
            let speedup = seq.stats().skeleton_duration.as_secs_f64() / elapsed.as_secs_f64();
            println!(
                "{:<14} {:>8} {:>12.2?} {:>9.2}x",
                mode.name(),
                threads,
                elapsed,
                speedup
            );
        }
    }
    println!("\nall modes produced identical skeletons and CPDAGs");
}
