//! Property tests pinning the TL-DRAM tiered-latency model (ISSUE 10):
//!
//! * **Monotonicity** — for every command sequence, an all-near device is
//!   never slower than the flat 9-9-9-36 device, which is never slower
//!   than an all-far device. The paper-flavored segment timings bracket
//!   the flat timings componentwise, and the scheduling model composes
//!   only `max` and `+`, so this must hold access by access.
//! * **Flat identity** — a tiered device whose two segments both use the
//!   flat timings is bit-identical to the pre-TL-DRAM device: same
//!   completion cycle and same stats for every access, wherever the
//!   near/far boundary falls (the segments are indistinguishable).

use cameo_memsim::{Dram, DramConfig, TlDramParams};
use cameo_types::{ByteSize, Cycle};
use proptest::prelude::*;

/// One scheduled command: arrival-time advance, target line, kind.
#[derive(Clone, Debug)]
struct Cmd {
    advance: u64,
    line: u64,
    write: bool,
}

fn cmds() -> impl Strategy<Value = Vec<Cmd>> {
    prop::collection::vec(
        (0u64..200, 0u64..8192, any::<bool>()).prop_map(|(advance, line, write)| Cmd {
            advance,
            line,
            write,
        }),
        1..64,
    )
}

fn flat() -> DramConfig {
    DramConfig::stacked(ByteSize::from_mib(64))
}

/// Replays `seq` against a device, returning per-command completions.
fn replay(mut dram: Dram, seq: &[Cmd]) -> Vec<Cycle> {
    let mut now = Cycle::ZERO;
    seq.iter()
        .map(|cmd| {
            now += Cycle::new(cmd.advance);
            if cmd.write {
                dram.write_line(now, cmd.line)
            } else {
                dram.read_line(now, cmd.line)
            }
        })
        .collect()
}

proptest! {
    /// near ≤ flat ≤ far, per access, for arbitrary command sequences.
    #[test]
    fn tiered_latency_is_monotone(seq in cmds()) {
        let base = flat();
        let paper = TlDramParams::paper(base.timings.cpu_per_bus, 0);
        let mut near_cfg = base;
        near_cfg.tl_dram = Some(TlDramParams {
            near_rows_per_bank: u64::MAX,
            ..paper
        });
        let mut far_cfg = base;
        far_cfg.tl_dram = Some(paper);

        let near = replay(Dram::new(near_cfg), &seq);
        let flat = replay(Dram::new(base), &seq);
        let far = replay(Dram::new(far_cfg), &seq);
        for (i, ((n, m), f)) in near.iter().zip(&flat).zip(&far).enumerate() {
            prop_assert!(n <= m, "near beat by flat at access {i}: {n:?} vs {m:?}");
            prop_assert!(m <= f, "flat beat by far at access {i}: {m:?} vs {f:?}");
        }
    }

    /// Equal segment timings collapse the tiered device onto the flat one
    /// bit for bit, at any near-segment size.
    #[test]
    fn uniform_tiering_is_flat_identity(seq in cmds(), near_rows in 0u64..32) {
        let base = flat();
        let mut tiered_cfg = base;
        tiered_cfg.tl_dram = Some(TlDramParams::uniform(base.timings, near_rows));
        let mut plain = Dram::new(base);
        let mut tiered = Dram::new(tiered_cfg);

        let mut now = Cycle::ZERO;
        for (i, cmd) in seq.iter().enumerate() {
            now += Cycle::new(cmd.advance);
            let (a, b) = if cmd.write {
                (plain.write_line(now, cmd.line), tiered.write_line(now, cmd.line))
            } else {
                (plain.read_line(now, cmd.line), tiered.read_line(now, cmd.line))
            };
            prop_assert_eq!(a, b, "completion diverged at access {}", i);
        }
        prop_assert_eq!(plain.stats(), tiered.stats());
    }
}
