//! Seeded random fabric generator: splitmix64-driven, deterministic per
//! seed, and well-typed **by construction** — every structural move
//! preserves the invariants [`Fabric::validate`] checks (non-empty
//! colorsets, direct join secondaries, no reconvergent forks, sources
//! always feeding storage), so generation never needs rejection loops.

use super::{Color, Fabric, Prim, XmasError};
use std::collections::BTreeSet;

/// Shape/size budget for generated fabrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenConfig {
    /// Growth steps (≈ combinational primitives + queues beyond the
    /// seeds/sinks scaffolding).
    pub max_steps: usize,
    /// Palette size (distinct colors, 1..=4).
    pub max_colors: usize,
    /// Queue capacity bound (1..=3 keeps products small).
    pub max_cap: usize,
    /// Allow credit-ring macros (join + initialized queue + fork).
    pub credit_rings: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig { max_steps: 7, max_colors: 2, max_cap: 2, credit_rings: true }
    }
}

/// The generator's PRNG: the workspace's one splitmix64 stream.
pub use multival_lts::SplitMix64;

/// One open (yet unconnected) output end during growth.
#[derive(Debug, Clone)]
struct Open {
    prim: usize,
    port: usize,
    colors: BTreeSet<Color>,
    /// The end is a queue's output port (usable as a join secondary).
    direct_queue: bool,
    /// Fork ids upstream since the last queue — two opens may only merge
    /// when their taints are disjoint (prevents reconvergent firings).
    taint: BTreeSet<usize>,
}

/// Generates a well-typed fabric, deterministic in `seed`.
#[must_use]
pub fn generate(seed: u64, cfg: &GenConfig) -> Fabric {
    let mut rng = SplitMix64::new(seed);
    let mut fab = Fabric::new();
    let mut opens: Vec<Open> = Vec::new();
    let mut n = Counter::default();

    let palette = 1 + rng.below(cfg.max_colors.clamp(1, 4));
    let colors: Vec<Color> = (1..=palette as Color).collect();
    let max_cap = cfg.max_cap.clamp(1, 3);

    // Sources, each feeding a fresh queue through a labeled channel.
    let n_src = 1 + rng.below(2);
    for i in 0..n_src {
        let mut set = BTreeSet::new();
        let want = 1 + rng.below(palette);
        while set.len() < want {
            set.insert(colors[rng.below(palette)]);
        }
        let src_colors: Vec<Color> = set.iter().copied().collect();
        let show = src_colors.len() > 1;
        let s = fab.add(&format!("src{i}"), Prim::Source { colors: src_colors });
        let q = n.queue(&mut fab, 1 + rng.below(max_cap), vec![]);
        let label = format!("in{i}");
        fab.wire_labeled(s, 0, q, 0, &label, show);
        fab.set_rate(&label, rate(&mut rng));
        opens.push(Open {
            prim: q,
            port: 0,
            colors: set,
            direct_queue: true,
            taint: BTreeSet::new(),
        });
    }

    for _ in 0..cfg.max_steps {
        if opens.is_empty() {
            break;
        }
        match rng.below(7) {
            // A plain queue stage.
            0 | 6 => {
                let o = opens.swap_remove(rng.below(opens.len()));
                let q = n.queue(&mut fab, 1 + rng.below(max_cap), vec![]);
                fab.wire(o.prim, o.port, q, 0);
                opens.push(Open {
                    prim: q,
                    port: 0,
                    colors: o.colors,
                    direct_queue: true,
                    taint: BTreeSet::new(),
                });
            }
            // A function remapping colors.
            1 => {
                let o = opens.swap_remove(rng.below(opens.len()));
                let map: Vec<(Color, Color)> =
                    o.colors.iter().map(|&c| (c, colors[rng.below(palette)])).collect();
                let image: BTreeSet<Color> = map.iter().map(|(_, v)| *v).collect();
                let f = fab.add(&format!("fun{}", n.next("fun")), Prim::Function { map });
                fab.wire(o.prim, o.port, f, 0);
                opens.push(Open {
                    prim: f,
                    port: 0,
                    colors: image,
                    direct_queue: false,
                    taint: o.taint,
                });
            }
            // A fork duplicating the stream.
            2 => {
                let o = opens.swap_remove(rng.below(opens.len()));
                let f = fab.add(&format!("frk{}", n.next("frk")), Prim::Fork);
                fab.wire(o.prim, o.port, f, 0);
                let mut taint = o.taint.clone();
                taint.insert(f);
                for port in 0..2 {
                    opens.push(Open {
                        prim: f,
                        port,
                        colors: o.colors.clone(),
                        direct_queue: false,
                        taint: taint.clone(),
                    });
                }
            }
            // A switch splitting the colorset (needs ≥ 2 colors).
            3 => {
                let candidates: Vec<usize> =
                    (0..opens.len()).filter(|&i| opens[i].colors.len() >= 2).collect();
                if candidates.is_empty() {
                    continue;
                }
                let oi = candidates[rng.below(candidates.len())];
                let o = opens.swap_remove(oi);
                let all: Vec<Color> = o.colors.iter().copied().collect();
                let take = 1 + rng.below(all.len() - 1);
                let mut on = BTreeSet::new();
                while on.len() < take {
                    on.insert(all[rng.below(all.len())]);
                }
                let rest: BTreeSet<Color> = o.colors.difference(&on).copied().collect();
                let s = fab.add(
                    &format!("sw{}", n.next("sw")),
                    Prim::Switch { on: on.iter().copied().collect() },
                );
                fab.wire(o.prim, o.port, s, 0);
                for (port, set) in [(0usize, on), (1, rest)] {
                    opens.push(Open {
                        prim: s,
                        port,
                        colors: set,
                        direct_queue: false,
                        taint: o.taint.clone(),
                    });
                }
            }
            // A merge of two fork-independent opens.
            4 => {
                let mut pair = None;
                'outer: for a in 0..opens.len() {
                    for b in a + 1..opens.len() {
                        if opens[a].taint.is_disjoint(&opens[b].taint) {
                            pair = Some((a, b));
                            break 'outer;
                        }
                    }
                }
                let Some((a, b)) = pair else { continue };
                // Remove the higher index first to keep `a` valid.
                let ob = opens.swap_remove(b);
                let oa = opens.swap_remove(a);
                let m = fab.add(&format!("mrg{}", n.next("mrg")), Prim::Merge);
                fab.wire(oa.prim, oa.port, m, 0);
                fab.wire(ob.prim, ob.port, m, 1);
                let colors: BTreeSet<Color> = oa.colors.union(&ob.colors).copied().collect();
                let taint: BTreeSet<usize> = oa.taint.union(&ob.taint).copied().collect();
                opens.push(Open { prim: m, port: 0, colors, direct_queue: false, taint });
            }
            // A credit ring: join against an initialized queue whose
            // tokens are recycled through a fork (the xSTream pattern).
            5 if cfg.credit_rings => {
                let o = opens.swap_remove(rng.below(opens.len()));
                let cap = 1 + rng.below(max_cap);
                let tokens = 1 + rng.below(cap);
                let tok_color = colors[rng.below(palette)];
                let qc = n.queue(&mut fab, cap, vec![tok_color; tokens]);
                let j = fab.add(&format!("jn{}", n.next("jn")), Prim::Join);
                let f = fab.add(&format!("frk{}", n.next("frk")), Prim::Fork);
                fab.wire(o.prim, o.port, j, 0);
                fab.wire(qc, 0, j, 1);
                fab.wire(j, 0, f, 0);
                fab.wire(f, 0, qc, 0);
                let mut taint = o.taint;
                taint.insert(f);
                opens.push(Open { prim: f, port: 1, colors: o.colors, direct_queue: false, taint });
            }
            // A plain join consuming a direct queue output as secondary.
            5 => {
                let secs: Vec<usize> =
                    (0..opens.len()).filter(|&i| opens[i].direct_queue).collect();
                if opens.len() < 2 || secs.is_empty() {
                    continue;
                }
                let si = secs[rng.below(secs.len())];
                let os = opens.swap_remove(si);
                if opens.is_empty() {
                    // The secondary was the only open end; put it back.
                    opens.push(os);
                    continue;
                }
                let op = opens.swap_remove(rng.below(opens.len()));
                let j = fab.add(&format!("jn{}", n.next("jn")), Prim::Join);
                fab.wire(op.prim, op.port, j, 0);
                fab.wire(os.prim, os.port, j, 1);
                opens.push(Open {
                    prim: j,
                    port: 0,
                    colors: op.colors,
                    direct_queue: false,
                    taint: op.taint,
                });
            }
            _ => unreachable!(),
        }
    }

    // Close every remaining open end with a sink; half of them get an
    // observation label (throughput probes, and the witnesses that make
    // routing bugs observable — an unlabeled switch branch hides its
    // traffic from every oracle). Two ends downstream of one fork belong
    // to the same firing, so at most one of them may carry a label
    // (taint disjointness ⇒ no firing traverses two labels).
    let mut obs = 0usize;
    let mut labeled_taint: BTreeSet<usize> = BTreeSet::new();
    for o in std::mem::take(&mut opens) {
        let k = fab.add(&format!("snk{}", n.next("snk")), Prim::Sink);
        if labeled_taint.is_disjoint(&o.taint) && rng.below(2) == 0 {
            labeled_taint.extend(o.taint.iter().copied());
            let label = format!("obs{obs}");
            obs += 1;
            // A bare label must have a single firing pattern, which only a
            // single-color queue output guarantees; every other end shows
            // the value so distinct patterns stay distinguishable.
            let show = !o.direct_queue || o.colors.len() > 1;
            fab.wire_labeled(o.prim, o.port, k, 0, &label, show);
            fab.set_rate(&label, rate(&mut rng));
        } else {
            fab.wire(o.prim, o.port, k, 0);
        }
    }

    // Some label placements are only visibly illegal under the full
    // firing analysis (a function conflating two colors onto one shown
    // value, say). Repair deterministically — widen or drop offending
    // labels until the fabric validates — rather than rejection-sampling
    // whole topologies.
    loop {
        let offender = match fab.validate() {
            Ok(_) => break,
            Err(XmasError::BareLabelMultiPattern { name })
            | Err(XmasError::MixedLabelStyle { name }) => {
                for ch in &mut fab.channels {
                    if let Some(l) = &mut ch.label {
                        if l.name == name {
                            l.show_value = true;
                        }
                    }
                }
                continue;
            }
            Err(XmasError::AmbiguousLabel { names }) => names.1,
            Err(XmasError::AmbiguousLabelValue { gate }) => {
                // The gate may carry a disambiguating suffix (`obs0_b`);
                // recover the label it groups.
                fab.channels
                    .iter()
                    .filter_map(|ch| ch.label.as_ref())
                    .map(|l| l.name.clone())
                    .find(|n| gate == *n || gate.starts_with(&format!("{n}_")))
                    .expect("ambiguous gate must come from a label")
            }
            Err(e) => unreachable!("generator produced a structurally ill-typed fabric: {e}"),
        };
        for ch in &mut fab.channels {
            if ch.label.as_ref().is_some_and(|l| l.name == offender) {
                ch.label = None;
            }
        }
        fab.rates.remove(&offender);
    }
    fab
}

fn rate(rng: &mut SplitMix64) -> f64 {
    0.5 + 0.5 * rng.below(8) as f64
}

/// Per-kind name counters (deterministic, collision-free names).
#[derive(Default)]
struct Counter {
    queues: usize,
    others: std::collections::BTreeMap<&'static str, usize>,
}

impl Counter {
    fn queue(&mut self, fab: &mut Fabric, cap: usize, init: Vec<Color>) -> usize {
        let id = self.queues;
        self.queues += 1;
        fab.add(&format!("q{id}"), Prim::Queue { cap, init })
    }

    fn next(&mut self, kind: &'static str) -> usize {
        let c = self.others.entry(kind).or_insert(0);
        let id = *c;
        *c += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_well_typed() {
        let cfg = GenConfig::default();
        for seed in 0..200u64 {
            let a = generate(seed, &cfg);
            let b = generate(seed, &cfg);
            assert_eq!(a, b, "seed {seed} must regenerate identically");
            assert!(a.validate().is_ok(), "seed {seed}: {:?}", a.validate().err());
        }
    }

    #[test]
    fn bigger_budgets_stay_well_typed() {
        let cfg = GenConfig { max_steps: 14, max_colors: 3, max_cap: 3, credit_rings: true };
        for seed in 0..100u64 {
            let fab = generate(seed, &cfg);
            assert!(fab.validate().is_ok(), "seed {seed}: {:?}", fab.validate().err());
        }
    }
}
