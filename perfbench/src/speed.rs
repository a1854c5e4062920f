//! A machine-speed reference, measured around every timed round of
//! `sweep-small` and `window-mid`.
//!
//! The machines this benchmark runs on share their memory system with
//! other tenants, and their speed drifts by a quarter and more over
//! minutes. A fixed kernel — xorshift-indexed read-modify-writes over a
//! 32 MiB buffer, past the private caches, like the world's pair store —
//! slows with them. Scaling each round's rate by the kernel's time around
//! it removes most of that drift; nothing the program does changes the
//! kernel, so every change to the program still shows in full.

use std::time::Instant;

/// Seconds one pass of the kernel takes on the reference machine. Scaled
/// rates read as if measured on a machine where the kernel takes this
/// long.
pub const REF_SECONDS: f64 = 0.020;

/// Accesses of the pass [`REF_SECONDS`] is calibrated for.
const REF_STEPS: usize = 1 << 20;

/// Words in each thread's buffer (32 MiB of `u64`).
const HALF_WORDS: usize = 4 << 20;

/// Resident size of the reference buffers, in MiB.
pub const RESIDENT_MB: f64 = (2 * HALF_WORDS * 8) as f64 / (1024.0 * 1024.0);

/// The kernel's buffers, one per thread, touched once so that they stay
/// resident for the whole run.
#[derive(Debug)]
pub struct Speed {
    halves: [Vec<u64>; 2],
    steps: usize,
}

impl Speed {
    /// Allocates and touches the buffers. One pass makes `steps` accesses
    /// per thread.
    pub fn new(steps: usize) -> Self {
        Speed {
            halves: [vec![1; HALF_WORDS], vec![2; HALF_WORDS]],
            steps,
        }
    }

    /// Seconds one pass takes now: the median of three passes, each run
    /// on `threads` (1 or 2) threads at once and timed as the mean of the
    /// threads' times, so that a two-thread workload is judged by both of
    /// the machine's cores. Scaled to a pass of `REF_STEPS` accesses.
    pub fn measure(&mut self, threads: usize) -> f64 {
        let mut passes = [0.0; 3];
        for pass in &mut passes {
            *pass = self.pass(threads);
        }
        passes.sort_by(f64::total_cmp);
        passes[1] * REF_STEPS as f64 / self.steps as f64
    }

    fn pass(&mut self, threads: usize) -> f64 {
        let steps = self.steps;
        let [a, b] = &mut self.halves;
        if threads >= 2 {
            std::thread::scope(|s| {
                let other = s.spawn(|| kernel(b, steps));
                let mine = kernel(a, steps);
                (mine + other.join().expect("the reference kernel cannot panic")) / 2.0
            })
        } else {
            kernel(a, steps)
        }
    }
}

fn kernel(buf: &mut [u64], steps: usize) -> f64 {
    let start = Instant::now();
    let mask = buf.len() - 1;
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0u64);
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        acc = acc.wrapping_add(buf[i]);
        buf[i] = acc ^ x;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_takes_time_and_keeps_its_buffers() {
        let mut speed = Speed::new(1 << 12);
        assert!(speed.measure(1) > 0.0);
        assert!(speed.measure(2) > 0.0);
        assert_eq!(RESIDENT_MB, 64.0);
        assert!(HALF_WORDS.is_power_of_two());
    }
}
