//! A fixed piece of host work, independent of the simulator, timed all
//! through a run to follow how fast the shared host runs the benchmark.
//!
//! A shared host's speed can drift by 2x over minutes, for the benchmark
//! and for this probe alike, so raw seconds from two runs minutes apart
//! compare the host's two states as much as the program. Scaling by the
//! probe's time in the same run takes out much of the drift, and nothing
//! the simulator does changes the probe: it uses no simulator code.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use crate::report::median;

/// About the probe's fastest time on the reference host, a 2-vCPU Xeon
/// VM. End-to-end times are reported in seconds of that host.
pub const REFERENCE_PROBE_S: f64 = 2.0e-3;

/// Words in the ring the probe walks: 4 MiB.
const RING_WORDS: usize = 1 << 20;

/// Dependent steps in one probe.
const STEPS: usize = 100_000;

/// A single cycle through every slot of the ring (Sattolo's shuffle),
/// built once per process.
fn ring() -> &'static [u32] {
    static RING: OnceLock<Vec<u32>> = OnceLock::new();
    RING.get_or_init(|| {
        let mut ring: Vec<u32> = (0..RING_WORDS as u32).collect();
        let mut state = 0x5EED_u64;
        for i in (1..RING_WORDS).rev() {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            ring.swap(i, (r % i as u64) as usize);
        }
        ring
    })
}

/// Host seconds of one probe: a dependent walk over the ring with a
/// little integer arithmetic per step, the mix of cache misses and
/// integer work a simulated access costs.
pub fn probe_s() -> f64 {
    let ring = ring();
    let start = Instant::now();
    let (mut i, mut acc) = (0usize, 0u64);
    for _ in 0..STEPS {
        i = ring[i] as usize;
        acc = (acc ^ i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17);
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Probe times taken through a run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Takes one more probe; returns its time in seconds.
    pub fn sample(&mut self) -> f64 {
        let s = probe_s();
        self.samples.push(s);
        s
    }

    /// Probes taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The run's fastest probe, in seconds.
    pub fn fastest_s(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The run's median probe, in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.samples)
    }

    /// Turns host seconds of this run into seconds of the reference host.
    /// The fastest probe is the one the host disturbed least, as the
    /// fastest steps are; it followed the simulator's drift better than
    /// the probes' quartiles did.
    pub fn scale(&self) -> f64 {
        REFERENCE_PROBE_S / self.fastest_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_is_one_cycle() {
        let ring = ring();
        let (mut i, mut steps) = (0usize, 0usize);
        loop {
            i = ring[i] as usize;
            steps += 1;
            if i == 0 {
                break;
            }
        }
        assert_eq!(steps, RING_WORDS);
    }

    #[test]
    fn the_scale_follows_the_fastest_probe() {
        let speed = HostSpeed {
            samples: vec![9.0e-3, 4.0e-3, 8.0e-3, 5.0e-3],
        };
        assert_eq!(speed.fastest_s(), 4.0e-3);
        assert_eq!(speed.scale(), 0.5);
    }
}
