//! The traced replay: each job re-run as the sequence of public layer calls
//! its verb makes, with a span around every call. The calls mirror
//! `multival::cli::execute` and `multival_svc::request` without touching
//! program code; rendering and other glue stays in the job's root span.

use crate::jobs::Job;
use crate::trace::Tracer;
use multival::cli::{Command, Scheduler};
use multival::ctmc::phfit;
use multival::ctmc::steady::{steady_state, SolveOptions};
use multival::ctmc::McOptions;
use multival::flow::{Flow, PerfFlow};
use multival::imc::decorate::{decorate, decorate_by_label_with_map};
use multival::imc::phase_type::Delay;
use multival::imc::to_ctmc::{probe_throughputs, to_ctmc};
use multival::imc::NondetPolicy;
use multival::lts::io::{read_aut, read_blts, write_aut, write_blts};
use multival::lts::minimize::minimize;
use multival::lts::pipeline::{run_pipeline, PipelineOptions};
use multival::lts::reach::{scan, ReachOptions};
use multival::lts::store::StoreConfig;
use multival::lts::Lts;
use multival::models::xstream::perf::{explore_pipeline, PerfConfig};
use multival::pa::{
    explore, explore_partial, explore_term_store_partial, extract_network, parse_spec,
    ExploreOptions, PaTs,
};
use multival::par::Workers;
use multival_svc::request::{SweepDelay, SweepParams, SweepScheduler};
use multival_svc::sweep::SweepSpec;
use std::collections::{BTreeMap, HashMap};
use std::error::Error;

type Res<T> = Result<T, Box<dyn Error>>;

/// Replay state shared across the jobs of a pass.
#[derive(Default)]
pub struct Replay {
    /// Flat state count of every model explored so far, by input path —
    /// the base of the on-the-fly visited ratio and the reduction waste
    /// ratio.
    pub flat: BTreeMap<String, usize>,
}

fn workers(threads: usize) -> Workers {
    if threads == 0 {
        Workers::auto()
    } else {
        Workers::new(threads)
    }
}

fn parse(t: &mut Tracer, input: &str) -> Res<multival::pa::Spec> {
    let spec =
        t.leaf("pa.parse", || -> Res<_> { Ok(parse_spec(&std::fs::read_to_string(input)?)?) })?;
    Ok(spec)
}

fn count_explored(t: &mut Tracer, lts: &Lts) {
    t.add("pa.explore.states", lts.num_states() as f64);
    t.add("pa.explore.transitions", lts.num_transitions() as f64);
}

fn write_out(t: &mut Tracer, path: &str, bytes: impl FnOnce() -> Vec<u8>) -> Res<()> {
    let n = t.leaf("lts.io", || -> Res<usize> {
        let bytes = bytes();
        std::fs::write(path, &bytes)?;
        Ok(bytes.len())
    })?;
    t.add("lts.io.bytes", n as f64);
    Ok(())
}

impl Replay {
    /// Loads an input the way the CLI's `load` does: `.aut`/`.blts` files
    /// through the I/O layer, mini-LOTOS through parse + explore.
    fn load(&mut self, t: &mut Tracer, input: &str) -> Res<Lts> {
        if input.ends_with(".aut") || input.ends_with(".blts") {
            let (lts, n) = t.leaf("lts.io", || -> Res<(Lts, usize)> {
                let bytes = std::fs::read(input)?;
                let lts = if input.ends_with(".blts") {
                    read_blts(&bytes)?
                } else {
                    read_aut(std::str::from_utf8(&bytes)?)?
                };
                Ok((lts, bytes.len()))
            })?;
            t.add("lts.io.bytes", n as f64);
            return Ok(lts);
        }
        let spec = parse(t, input)?;
        let lts = t
            .leaf("pa.explore", || explore(&spec, &ExploreOptions::with_max_states(1_000_000)))?
            .lts;
        count_explored(t, &lts);
        self.flat.insert(input.to_owned(), lts.num_states());
        Ok(lts)
    }

    /// Replays one job run under a root span; returns the µs its layer
    /// calls took (the root's children).
    pub fn job(&mut self, t: &mut Tracer, job: &Job) -> Res<f64> {
        let root = t.enter("job");
        let result = self.command(t, &job.cmd);
        let children = t.child_us(root);
        t.exit();
        result.map(|()| children)
    }

    fn command(&mut self, t: &mut Tracer, cmd: &Command) -> Res<()> {
        match cmd {
            Command::Explore {
                input,
                aut,
                blts,
                budget,
                threads,
                on_the_fly,
                store,
                mem_budget,
                ..
            } => {
                let max_states = budget.max_states_or(1_000_000);
                if *on_the_fly {
                    let spec = parse(t, input)?;
                    let ts = PaTs::new(&spec);
                    let s = t.leaf("pa.explore", || {
                        scan(&ts, &ReachOptions::with_max_states(max_states))
                    });
                    t.add("pa.explore.states", s.states as f64);
                    t.add("pa.explore.transitions", s.transitions as f64);
                    return Ok(());
                }
                let spec = parse(t, input)?;
                let options = ExploreOptions::with_max_states(max_states).with_threads(*threads);
                let lts = if store.is_some() || mem_budget.is_some() {
                    let config =
                        StoreConfig { kind: store.unwrap_or_default(), mem_budget: *mem_budget };
                    let run = t.leaf("pa.explore", || {
                        explore_term_store_partial(spec.top().clone(), &spec, &options, &config)
                    });
                    t.max("lts.store.resident_bytes", run.store.mem_bytes as f64);
                    run.lts
                } else {
                    t.leaf("pa.explore", || explore_partial(&spec, &options)).explored.lts
                };
                count_explored(t, &lts);
                self.flat.insert(input.clone(), lts.num_states());
                if let Some(path) = aut {
                    write_out(t, path, || write_aut(&lts).into_bytes())?;
                }
                if let Some(path) = blts {
                    write_out(t, path, || write_blts(&lts))?;
                }
            }
            Command::Check { input, formula, rates, scheduler, on_the_fly, .. } => {
                if !rates.is_empty() {
                    return self.check_rate(t, input, formula, rates, *scheduler);
                }
                let f = multival::mcl::parse_formula(formula)?;
                if *on_the_fly {
                    let spec = parse(t, input)?;
                    let ts = PaTs::new(&spec);
                    let report = t.leaf("mcl.check", || {
                        multival::mcl::check_on_the_fly(&ts, &f, &ReachOptions::default())
                    });
                    let report = report.ok_or("formula outside the on-the-fly fragment")??;
                    if let Some(&flat) = self.flat.get(input) {
                        t.add("mcl.onthefly.visited", report.stats.visited as f64);
                        t.add("mcl.onthefly.flat", flat as f64);
                    }
                    return Ok(());
                }
                let lts = self.load(t, input)?;
                t.leaf("mcl.check", || multival::mcl::check(&lts, &f))?;
            }
            Command::Minimize { input, eq, aut } => {
                let lts = self.load(t, input)?;
                let (min, stats) = t.leaf("lts.minimize", || minimize(&lts, *eq));
                t.add("lts.minimize.in", stats.states_before as f64);
                t.add("lts.minimize.out", stats.states_after as f64);
                if let Some(path) = aut {
                    write_out(t, path, || write_aut(&min).into_bytes())?;
                }
            }
            Command::Reduce {
                input,
                eq,
                order,
                aut,
                blts,
                threads,
                budget,
                store,
                mem_budget,
                ..
            } => {
                let spec = parse(t, input)?;
                let net = t.leaf("pa.extract_network", || {
                    extract_network(&spec, &ExploreOptions::default())
                })?;
                let options = PipelineOptions {
                    equivalence: *eq,
                    order: *order,
                    workers: workers(*threads),
                    max_states: budget.max_states,
                    deadline: budget.deadline(),
                    checkpoint_dir: None,
                    store: StoreConfig { kind: store.unwrap_or_default(), mem_budget: *mem_budget },
                };
                let run = t.leaf("lts.pipeline", || run_pipeline(&net, &options));
                let peak = run.peak_states() as f64;
                t.max("lts.pipeline.peak_states", peak);
                if let Some(&flat) = self.flat.get(input) {
                    t.max("lts.pipeline.peak_over_flat", peak / flat.max(1) as f64);
                }
                if let Some(path) = aut {
                    write_out(t, path, || write_aut(&run.lts).into_bytes())?;
                }
                if let Some(path) = blts {
                    write_out(t, path, || write_blts(&run.lts))?;
                }
            }
            Command::Simulate {
                input,
                rates,
                probes,
                horizon,
                time,
                trajectories,
                seed,
                threads,
                rel_width,
                confidence,
                budget,
                ..
            } => {
                let lts = self.load(t, input)?;
                let probes: Vec<&str> = probes.iter().map(String::as_str).collect();
                let perf = decorate_rates(t, &lts, rates);
                let solved =
                    t.leaf("imc.to_ctmc", || perf.solve(NondetPolicy::Uniform, &probes))?;
                t.add("imc.to_ctmc.ctmc_states", solved.ctmc().num_states() as f64);
                t.leaf("ctmc.steady", || solved.steady_state())?;
                let opts = McOptions {
                    seed: *seed,
                    workers: workers(*threads),
                    max_trajectories: *trajectories,
                    rel_width: *rel_width,
                    confidence: *confidence,
                    deadline: budget.deadline(),
                    ..McOptions::default()
                };
                let run = t.leaf("ctmc.mc", || solved.simulate_occupancy(*horizon, &opts));
                t.add("ctmc.mc.trajectories", run.trajectories as f64);
                if let Some(time) = time {
                    t.leaf("ctmc.transient", || solved.transient(*time))?;
                    let run = t.leaf("ctmc.mc", || solved.simulate_transient(*time, &opts));
                    t.add("ctmc.mc.trajectories", run.trajectories as f64);
                }
            }
            Command::ExploreSpace { spec, .. } => {
                let points = t.leaf("svc.sweep.expand", || -> Res<_> {
                    let spec = SweepSpec::parse(&std::fs::read_to_string(spec)?)?;
                    Ok(spec.points(None)?)
                })?;
                for p in &points {
                    replay_sweep_point(
                        t,
                        p.request.sweep.as_ref().ok_or("sweep point without params")?,
                    )?;
                }
            }
            other => return Err(format!("no replay for {other:?}").into()),
        }
        Ok(())
    }

    /// `check --rate`: decorate, convert (CTMC or lifted CTMDP), solve the
    /// predicate's measure.
    fn check_rate(
        &mut self,
        t: &mut Tracer,
        input: &str,
        formula: &str,
        rates: &[(String, f64)],
        scheduler: Scheduler,
    ) -> Res<()> {
        let lhs = formula.split(['>', '<']).next().unwrap_or("").trim();
        let (name, args) = lhs
            .strip_suffix(')')
            .and_then(|s| s.split_once('('))
            .ok_or_else(|| format!("unsupported predicate `{formula}`"))?;
        let ids: Vec<u32> = if name == "latency" {
            args.split(',').map(|s| s.trim().parse()).collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        let probes: Vec<&str> = if name == "throughput" { vec![args.trim()] } else { Vec::new() };
        let lts = self.load(t, input)?;
        let perf = decorate_rates(t, &lts, rates);
        if scheduler == Scheduler::Uniform {
            let solved = t.leaf("imc.to_ctmc", || perf.solve(NondetPolicy::Uniform, &probes))?;
            t.add("imc.to_ctmc.ctmc_states", solved.ctmc().num_states() as f64);
            t.leaf("ctmc.steady", || -> Res<()> {
                if ids.is_empty() {
                    solved.throughputs()?;
                } else {
                    solved.mean_time_to_states(&ids)?;
                }
                Ok(())
            })?;
        } else {
            let bounds = t.leaf("imc.to_ctmc", || perf.solve_bounds(&probes))?;
            t.add("imc.to_ctmc.ctmc_states", bounds.mdp().num_states() as f64);
            t.leaf("ctmc.mdp", || -> Res<()> {
                if ids.is_empty() {
                    bounds.throughput_bounds()?;
                } else {
                    bounds.latency_bounds(&ids)?;
                }
                Ok(())
            })?;
        }
        Ok(())
    }
}

/// `Flow::with_rates`, timed as the decoration layer.
fn decorate_rates(t: &mut Tracer, lts: &Lts, rates: &[(String, f64)]) -> PerfFlow {
    let delays: HashMap<String, Delay> =
        rates.iter().map(|(g, r)| (g.clone(), Delay::Exponential { rate: *r })).collect();
    let imc = t.leaf("imc.decorate", || decorate(lts, &delays));
    t.add("imc.decorate.states", imc.num_states() as f64);
    PerfFlow::from_imc(imc)
}

/// One sweep point as `svc::request`'s sweep evaluation makes it: fit the
/// transfer delay, explore the pipeline, decorate, convert, solve, and for
/// min/max schedulers the lifted CTMDP bounds.
pub fn replay_sweep_point(t: &mut Tracer, p: &SweepParams) -> Res<()> {
    let config = PerfConfig {
        push_capacity: p.push_capacity,
        pop_capacity: p.pop_capacity,
        producer_rate: p.producer_rate,
        transfer_rate: p.transfer_rate,
        consumer_rate: p.consumer_rate,
        credit_rate: p.credit_rate,
    };
    let mean = 1.0 / p.transfer_rate;
    let (win, samples) = (phfit::DEFAULT_JUMP_WINDOW, phfit::DEFAULT_SAMPLES);
    let (xfer, k) = t.leaf("ctmc.phfit", || -> Res<(Delay, usize)> {
        Ok(match p.delay {
            SweepDelay::Exponential => {
                std::hint::black_box(phfit::sup_error_vs_step(1, mean, win, samples));
                (Delay::Exponential { rate: p.transfer_rate }, 1)
            }
            SweepDelay::Erlang { k } => {
                std::hint::black_box(phfit::sup_error_vs_step(k as usize, mean, win, samples));
                (Delay::fixed(mean, k), k as usize)
            }
            SweepDelay::Deterministic { tol } => {
                let fit = phfit::fit_deterministic(mean, tol, &phfit::FitOptions::default())?;
                (Delay::Erlang { phases: fit.k as u32, rate: fit.rate }, fit.k)
            }
        })
    })?;
    t.max("ctmc.phfit.k", k as f64);
    let delay_of = |label: &str| -> Option<Delay> {
        match label {
            "push" => Some(Delay::Exponential { rate: config.producer_rate }),
            "xfer" => Some(xfer.clone()),
            "pop" => Some(Delay::Exponential { rate: config.consumer_rate }),
            "credit" => Some(Delay::Exponential { rate: config.credit_rate }),
            _ => None,
        }
    };
    let explored = t.leaf("models.explore", || explore_pipeline(&config))?;
    let (imc, _) = t.leaf("imc.decorate", || decorate_by_label_with_map(&explored.lts, delay_of));
    t.add("imc.decorate.states", imc.num_states() as f64);
    let conv = t.leaf("imc.to_ctmc", || {
        to_ctmc(&imc, NondetPolicy::Reject, &["push", "xfer", "pop", "credit"])
    })?;
    t.add("imc.to_ctmc.ctmc_states", conv.ctmc.num_states() as f64);
    t.leaf("ctmc.steady", || -> Res<()> {
        steady_state(&conv.ctmc, &SolveOptions::default())?;
        probe_throughputs(&conv, &SolveOptions::default())?;
        Ok(())
    })?;
    if p.scheduler != SweepScheduler::Uniform {
        let lts = t.leaf("models.explore", || explore_pipeline(&config))?.lts;
        let perf = t.leaf("imc.decorate", || Flow::from_lts(lts).with_delays_by_label(delay_of));
        t.add("imc.decorate.states", perf.imc().num_states() as f64);
        let bounds = t.leaf("imc.to_ctmc", || perf.solve_bounds(&["pop"]))?;
        t.add("imc.to_ctmc.ctmc_states", bounds.mdp().num_states() as f64);
        t.leaf("ctmc.mdp", || bounds.throughput_bounds())?;
    }
    Ok(())
}
