//! A yardstick for the host's speed, so `batch_cold`'s guarded timings
//! measure the program rather than the machine.
//!
//! The reference box is a shared virtual machine whose CPU speed drifts
//! over seconds and minutes: with no other process running and no steal
//! time, a fixed integer loop took anywhere from 37 to 67 ms, and the
//! `batch_cold` pass time moved with it, so ten-seed sets of the same code
//! spread by 18–28% in wall-clock throughput. `batch_cold` therefore times
//! each set-up and each pass just after a probe: a fixed piece of work
//! that belongs to the benchmark (string formatting, a sort, a B-tree map,
//! a checksum; no code of the program under test) on the same thread. The
//! timing is reported at the reference speed, `measured × REFERENCE_S /
//! probe`, where [`REFERENCE_S`] is the probe's time on the reference box.
//! A change to the program moves the measured time and leaves the probe
//! alone, so it shows in full; a slower phase of the host lengthens both,
//! and cancels. The wall-clock figures are printed beside the guarded
//! ones, unguarded.
//!
//! The serving workloads report wall-clock figures: there the probe, taken
//! between bursts or write segments on the main thread, tracked neither
//! the burst nor the ingest throughput (their spread across seeds did not
//! narrow, and grew on some sets), since their time goes to wake-ups,
//! cross-thread hand-offs and disk as much as to one CPU's speed.

use std::time::Instant;

/// The probe's median time on the reference box (2 vCPUs, shared
/// Firecracker virtual machine) in a quiet phase, seconds. It only sets
/// the scale: a guarded timing reads as what it would have been had the
/// probe taken exactly this long.
pub const REFERENCE_S: f64 = 0.0064;

/// The probe's fixed work; the result keeps the optimizer from dropping it.
fn reference_work(seed: u64) -> u64 {
    use std::collections::BTreeMap;
    let mut x = seed;
    let mut words: Vec<String> = (0..12_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            format!("w{:x}", x % 40_009)
        })
        .collect();
    words.sort_unstable();
    let mut counts: BTreeMap<&str, u32> = BTreeMap::new();
    for w in &words {
        *counts.entry(w.as_str()).or_default() += 1;
    }
    let text: String = counts.keys().map(|k| format!("<{k}>{k}</{k}>")).collect();
    text.bytes()
        .fold(0u64, |a, b| a.rotate_left(5) ^ u64::from(b))
        ^ counts.len() as u64
}

/// Times one run of the probe, seconds.
pub fn probe() -> f64 {
    let t = Instant::now();
    std::hint::black_box(reference_work(std::hint::black_box(7)));
    t.elapsed().as_secs_f64()
}

/// A time measured beside a probe of `probe` seconds, at the reference
/// speed.
pub fn at_reference(measured: f64, probe: f64) -> f64 {
    measured * REFERENCE_S / probe
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_is_fixed_work() {
        assert_eq!(reference_work(7), reference_work(7));
        assert!(probe() > 0.0);
    }

    #[test]
    fn timings_scale_to_the_reference_speed() {
        // Twice as slow a host: twice the probe, twice the measured time.
        let fast = at_reference(0.1, REFERENCE_S);
        let slow = at_reference(0.2, 2.0 * REFERENCE_S);
        assert!((fast - 0.1).abs() < 1e-12 && (slow - fast).abs() < 1e-12);
    }
}
