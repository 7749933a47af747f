//! Shared bench scaffolding.
//!
//! Hand-rolled harness (warm-up + averaging over a fixed sample count)
//! instead of criterion, so `cargo bench` works with no network and no
//! third-party crates. The `[[bench]]` target sets `harness = false`.

use std::time::{Duration, Instant};

const SAMPLES: usize = 10;

/// Time one closure: warm-up once, then average `SAMPLES` runs.
pub fn sample<F: FnMut()>(mut f: F) -> Duration {
    f(); // warm-up, discarded
    let t0 = Instant::now();
    for _ in 0..SAMPLES {
        f();
    }
    t0.elapsed() / SAMPLES as u32
}
