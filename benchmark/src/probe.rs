//! The host-speed probe: a fixed piece of work that owes nothing to the
//! program, timed right before and right after every timed section, so
//! that a section's time can be stated at a reference host speed.
//!
//! Why: the reference container is two virtual CPUs on a shared host, and
//! how fast they run is the neighbours' business. The CPU seconds of
//! identical, deterministic work were seen 40 % apart between one half
//! hour and the next, and 10-20 % apart between one second and the next;
//! cache- and memory-bound work moves most, register-bound work least (it
//! is contention for the shared cache and the memory system, not for CPU
//! time). The driver's bounds are at most 25 %. A time divided by how slow
//! the host just proved to be is the only number here that repeats.

use crate::input::SplitMix64;
use gar_obs::Stopwatch;

/// Slots of the pointer-chase ring: 32 MB of `u32`, past any cache.
const RING_SLOTS: usize = 8 << 20;
/// Slots of the per-thread counting table: 2 MB, cache-resident.
const TABLE_SLOTS: usize = 512 << 10;
/// Steps of the three kernels, sized to 5-12 ms each.
const REGISTER_STEPS: u32 = 2_500_000;
const TABLE_STEPS: u32 = 4_000_000;
const RING_STEPS: u32 = 100_000;
/// One reading runs the kernels this many times and keeps the faster
/// time of each, so a hiccup inside the probe is not taken for the host's
/// speed.
const READINGS: usize = 2;

/// Milliseconds the three kernels take on the reference container in a
/// calm hour: the speed every reported time is stated at. Frozen; a
/// faster or slower machine reads a factor other than 1 and reports the
/// times this one would have measured.
pub const REFERENCE_MS: [f64; 3] = [5.2, 6.1, 11.6];

pub struct SpeedProbe {
    /// One random cycle through all slots, so every load depends on the
    /// last one and misses every cache. Read-only, shared by the threads.
    ring: Vec<u32>,
    /// One counting table per thread the probe can run on.
    tables: Vec<Vec<u32>>,
}

impl SpeedProbe {
    /// A probe that can run on up to `threads` threads at once.
    pub fn new(threads: usize) -> SpeedProbe {
        let mut order: Vec<u32> = (0..RING_SLOTS as u32).collect();
        let mut rng = SplitMix64(0x7072_6f62_6521);
        for i in (1..RING_SLOTS).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut ring = vec![0u32; RING_SLOTS];
        for (i, &slot) in order.iter().enumerate() {
            ring[slot as usize] = order[(i + 1) % RING_SLOTS];
        }
        SpeedProbe {
            ring,
            tables: vec![vec![0u32; TABLE_SLOTS]; threads.max(1)],
        }
    }

    /// Memory the probe holds (and has touched), in MB: what it adds to
    /// the process's peak resident size.
    pub fn resident_mb(&self) -> f64 {
        let slots = self.ring.len() + self.tables.iter().map(Vec::len).sum::<usize>();
        (slots * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0)
    }

    /// How slow the host is right now: the geometric mean, over the three
    /// kernels, of measured ÷ reference time; 1 on the reference container
    /// in a calm hour, 1.4 in a bad one. On more than one thread every
    /// thread runs the kernels at once and the slowest speaks for each
    /// kernel, as the slower node speaks for a parallel mining call.
    pub fn slowness(&mut self, threads: usize) -> f64 {
        let ring = &self.ring;
        let worst = if threads <= 1 {
            kernels(ring, &mut self.tables[0], 0)
        } else {
            std::thread::scope(|scope| {
                let running: Vec<_> = self
                    .tables
                    .iter_mut()
                    .take(threads)
                    .enumerate()
                    .map(|(i, table)| scope.spawn(move || kernels(ring, table, i)))
                    .collect();
                running
                    .into_iter()
                    .map(|thread| thread.join().expect("the probe kernels cannot panic"))
                    .fold([0.0f64; 3], |a, b| {
                        [a[0].max(b[0]), a[1].max(b[1]), a[2].max(b[2])]
                    })
            })
        };
        worst
            .iter()
            .zip(REFERENCE_MS)
            .map(|(ms, reference)| ms / reference)
            .product::<f64>()
            .cbrt()
    }
}

/// Milliseconds of the register, cache and memory kernel on one thread:
/// the faster of [`READINGS`] goes at each.
fn kernels(ring: &[u32], table: &mut [u32], thread: usize) -> [f64; 3] {
    (0..READINGS)
        .map(|_| kernels_once(ring, table, thread))
        .fold([f64::INFINITY; 3], |a, b| {
            [a[0].min(b[0]), a[1].min(b[1]), a[2].min(b[2])]
        })
}

fn kernels_once(ring: &[u32], table: &mut [u32], thread: usize) -> [f64; 3] {
    let clock = Stopwatch::start();
    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ thread as u64;
    for _ in 0..REGISTER_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    let registers = clock.elapsed().as_secs_f64() * 1e3;

    let clock = Stopwatch::start();
    let mask = table.len() - 1;
    let mut y = std::hint::black_box(x) | 1;
    for _ in 0..TABLE_STEPS {
        y = y.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(23);
        let slot = y as usize & mask;
        table[slot] = table[slot].wrapping_add(1);
    }
    std::hint::black_box(&mut *table);
    let cache = clock.elapsed().as_secs_f64() * 1e3;

    let clock = Stopwatch::start();
    // Threads start a third of the ring apart, so they never share a line.
    let mut at = (thread * (ring.len() / 3)) as u32;
    for _ in 0..RING_STEPS {
        at = ring[at as usize];
    }
    std::hint::black_box(at);
    let memory = clock.elapsed().as_secs_f64() * 1e3;
    [registers, cache, memory]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_is_one_cycle_through_every_slot() {
        let probe = SpeedProbe::new(1);
        let mut at = 0u32;
        let mut steps = 0usize;
        loop {
            at = probe.ring[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, RING_SLOTS);
    }

    #[test]
    fn slowness_is_a_positive_factor_on_one_thread_and_on_two() {
        let mut probe = SpeedProbe::new(2);
        for threads in [1, 2] {
            let factor = probe.slowness(threads);
            assert!(factor.is_finite() && factor > 0.0, "{factor}");
        }
        assert!((probe.resident_mb() - 36.0).abs() < 1e-9);
    }
}
