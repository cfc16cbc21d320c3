//! `serve_open`: an open-loop Poisson arrival schedule into one
//! `ServeEngine` driven by this thread, then an offline backlog phase
//! that measures capacity.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use axonn_lm::decode::{self, KvCache};
use axonn_lm::{Gpt, GptModelConfig};
use axonn_serve::{FinishReason, Sampling, ServeConfig, ServeEngine, ServeError, ServeRequest};
use axonn_tensor::take_gemm_phase;
use axonn_trace::LiveRegistry;

use crate::report::{Check, Metric, Outcome};
use crate::spans::Spans;
use crate::stats::{mean, median, percentile, SeedRng};

pub struct ServeSpec {
    pub model: GptModelConfig,
    pub engine: ServeConfig,
    /// Mean arrivals per second of the open-loop phase.
    pub rate_per_s: f64,
    /// Share of `--seconds` spent in the open-loop phase; the rest runs
    /// offline backlogs.
    pub open_share: f64,
    /// Share of prompts drawn from the long bucket.
    pub long_share: f64,
    pub short_prompt: (usize, usize),
    pub long_prompt: (usize, usize),
    pub new_tokens: (usize, usize),
    pub deadline_steps: u64,
    /// Open-loop segments, each followed by offline rounds, so that both
    /// phases sample the whole run.
    pub segments: usize,
    /// Requests per segment, whatever `--seconds` says; the segments
    /// together hold at least 1000.
    pub min_segment_requests: usize,
    /// Requests queued at t=0 per offline round.
    pub backlog: usize,
    pub setups: usize,
    pub warmup_requests: usize,
    /// Completed requests whose outputs are re-derived with
    /// `Gpt::greedy_continuation`.
    pub check_sample: usize,
    pub ttft_slo_ms: f64,
    pub tpot_slo_ms: f64,
}

impl ServeSpec {
    pub fn params(&self) -> String {
        let m = &self.model;
        let e = &self.engine;
        format!(
            "vocab={} seq_len={} dim={} heads={} layers={} max_queue={} max_active={} max_batch_tokens={} rate_per_s={} open_share={} long_share={} short_prompt={:?} long_prompt={:?} new_tokens={:?} deadline_steps={} segments={} min_segment_requests={} backlog={} setups={} ttft_slo_ms={} tpot_slo_ms={}",
            m.vocab, m.seq_len, m.dim, m.n_heads, m.n_layers, e.max_queue, e.max_active,
            e.max_batch_tokens, self.rate_per_s, self.open_share, self.long_share,
            self.short_prompt, self.long_prompt, self.new_tokens, self.deadline_steps,
            self.segments, self.min_segment_requests, self.backlog, self.setups, self.ttft_slo_ms, self.tpot_slo_ms
        )
    }

    /// Dense GEMM flops of one token through the model (attention score
    /// products excluded).
    fn flops_per_token(&self) -> f64 {
        let d = self.model.dim as f64;
        2.0 * (12.0 * d * d * self.model.n_layers as f64 + d * self.model.vocab as f64)
    }
}

pub fn serve_open() -> ServeSpec {
    ServeSpec {
        model: GptModelConfig {
            vocab: 256,
            seq_len: 128,
            dim: 128,
            n_heads: 4,
            n_layers: 2,
            seed: 0,
        },
        engine: ServeConfig {
            max_queue: 512,
            max_active: 16,
            max_batch_tokens: 128,
            sampling: Sampling::Greedy,
            seed: 0,
        },
        rate_per_s: 50.0,
        open_share: 0.9,
        long_share: 0.02,
        short_prompt: (4, 16),
        long_prompt: (80, 104),
        new_tokens: (4, 8),
        deadline_steps: 5000,
        segments: 12,
        min_segment_requests: 84,
        backlog: 64,
        setups: 9,
        warmup_requests: 64,
        check_sample: 24,
        ttft_slo_ms: 10.0,
        tpot_slo_ms: 2.5,
    }
}

struct Req {
    /// Seconds after the phase start at which the request is due.
    due: f64,
    prompt: Vec<usize>,
    max_new: usize,
}

fn request(spec: &ServeSpec, rng: &mut SeedRng, due: f64) -> Req {
    let (lo, hi) = if rng.unit() < spec.long_share {
        spec.long_prompt
    } else {
        spec.short_prompt
    };
    let len = rng.range(lo, hi);
    let max_new = rng
        .range(spec.new_tokens.0, spec.new_tokens.1)
        .min(spec.model.seq_len - len);
    let prompt = (0..len)
        .map(|_| rng.range(0, spec.model.vocab - 1))
        .collect();
    Req {
        due,
        prompt,
        max_new,
    }
}

fn submit(engine: &mut ServeEngine, spec: &ServeSpec, r: &Req) -> Result<u64, ServeError> {
    engine.submit(ServeRequest {
        prompt: r.prompt.clone(),
        max_new_tokens: r.max_new,
        deadline_steps: Some(spec.deadline_steps),
    })
}

/// What happened to one request of the open-loop phase.
#[derive(Default, Clone)]
struct Fate {
    lag_s: f64,
    rejected: bool,
    evicted: bool,
    tokens: Vec<usize>,
    ttft_s: Option<f64>,
    tpot_s: Option<f64>,
    queue_s: Option<f64>,
    admit_step_s: Option<f64>,
    wait_steps: Option<u64>,
    done: bool,
}

#[derive(Default)]
struct OpenPhase {
    fates: Vec<Fate>,
    /// Engine step wall times, ms, and whether a span covered the step.
    step_ms: Vec<(f64, bool)>,
    batch_streams: Vec<f64>,
    tokens_per_step: Vec<f64>,
    queue_depth: Vec<f64>,
    gemm_ms: Vec<f64>,
    packed_bytes: Vec<f64>,
    flops: Vec<f64>,
    wall_s: f64,
}

/// Drive the engine through the open-loop schedule until every request
/// has resolved; a traced segment records its steps and requests as
/// spans.
fn open_phase(
    spec: &ServeSpec,
    engine: &mut ServeEngine,
    reqs: &[Req],
    traced: bool,
    spans: &mut Spans,
) -> OpenPhase {
    let mut out = OpenPhase {
        fates: vec![Fate::default(); reqs.len()],
        ..OpenPhase::default()
    };
    let base = engine.current_step();
    let mut step_bounds: Vec<(f64, f64)> = Vec::new();
    let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
    // Per engine step: requests admitted and their prompt tokens.
    let mut admitted: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    let mut produced_at: Vec<usize> = Vec::new();
    let mut next = 0;
    let t0 = Instant::now();
    let secs = |t: Instant| t.duration_since(t0).as_secs_f64();
    let _ = take_gemm_phase();
    loop {
        let now = t0.elapsed().as_secs_f64();
        while next < reqs.len() && reqs[next].due <= now {
            let r = &reqs[next];
            out.fates[next].lag_s = t0.elapsed().as_secs_f64() - r.due;
            match submit(engine, spec, r) {
                Ok(id) => {
                    by_id.insert(id, next);
                }
                Err(_) => out.fates[next].rejected = true,
            }
            next += 1;
        }
        if engine.queue_depth() + engine.in_flight() > 0 {
            out.queue_depth.push(engine.queue_depth() as f64);
            let s0 = Instant::now();
            let produced = engine.step();
            let s1 = Instant::now();
            step_bounds.push((secs(s0), secs(s1)));
            produced_at.push(produced);
            let ms = s1.duration_since(s0).as_secs_f64() * 1e3;
            out.step_ms.push((ms, traced));
            let phase = take_gemm_phase();
            if traced {
                let step = engine.current_step() - base;
                let id = spans.record("serve.step", spans.at(s0), spans.at(s1), None, step);
                let start = spans.get(id).start;
                spans.record(
                    "tensor.gemm",
                    start,
                    start + phase.total_seconds(),
                    Some(id),
                    step,
                );
            }
            out.gemm_ms.push(phase.total_seconds() * 1e3);
            out.packed_bytes.push(phase.packed_bytes as f64);
            out.batch_streams.push(engine.in_flight() as f64);
            out.tokens_per_step.push(produced as f64);
            for c in engine.drain_completions() {
                let idx = by_id[&c.id];
                let f = &mut out.fates[idx];
                f.done = true;
                f.evicted = c.reason == FinishReason::DeadlineExpired;
                f.tokens = c.tokens.clone();
                if let Some(first) = c.first_token_step {
                    let (fs, fe) = step_bounds[(first - base - 1) as usize];
                    let (_, end) = step_bounds[(c.finished_step - base - 1) as usize];
                    let due = reqs[idx].due;
                    f.ttft_s = Some(fe - due);
                    f.queue_s = Some(fs - due);
                    f.admit_step_s = Some(fe - fs);
                    f.wait_steps = Some(first - c.submitted_step);
                    let a = admitted.entry(first).or_default();
                    a.0 += 1;
                    a.1 += c.prompt_len;
                    if c.tokens.len() > 1 {
                        f.tpot_s = Some((end - fe) / (c.tokens.len() - 1) as f64);
                    }
                }
                if traced {
                    let due = spans.at(t0) + reqs[idx].due;
                    let (_, end) = step_bounds[(c.finished_step - base - 1) as usize];
                    let rid = spans.record("serve.request", due, spans.at(t0) + end, None, c.id);
                    if let Some(ttft) = f.ttft_s {
                        spans.record("serve.ttft", due, due + ttft, Some(rid), c.id);
                    }
                }
            }
        } else if next < reqs.len() {
            // Spin rather than sleep until the next arrival: a sleeping
            // core wakes slowly and at a lower clock, which would show
            // up as latency that the engine did not cause.
            std::hint::spin_loop();
        } else {
            break;
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    // Dense flops of each step: the prompt tokens of the requests it
    // admitted (whose prefill yields their first token) plus one token
    // per other stream it decoded.
    let per_token = spec.flops_per_token();
    for (i, produced) in produced_at.iter().enumerate() {
        let (n, prompt) = admitted
            .get(&(base + 1 + i as u64))
            .copied()
            .unwrap_or((0, 0));
        out.flops.push((produced - n + prompt) as f64 * per_token);
    }
    out
}

/// Poisson arrivals of segment `k` at the spec's rate over `seconds`,
/// extended until at least `min_requests` are due.
fn schedule(spec: &ServeSpec, seed: u64, k: u64, seconds: f64, min_requests: usize) -> Vec<Req> {
    let mut rng = SeedRng::new(seed, 0x09e4 + k);
    let mut reqs = Vec::new();
    let mut t = rng.exp(1.0 / spec.rate_per_s);
    while t < seconds || reqs.len() < min_requests {
        reqs.push(request(spec, &mut rng, t));
        t += rng.exp(1.0 / spec.rate_per_s);
    }
    reqs
}

fn build(spec: &ServeSpec, seed: u64, registry: &LiveRegistry) -> ServeEngine {
    let mut cfg = spec.model.clone();
    cfg.seed = seed;
    let model = Arc::new(Gpt::new(cfg));
    let mut engine = ServeEngine::new(model, spec.engine.clone(), registry);
    let mut rng = SeedRng::new(seed, 0x3a3a);
    for _ in 0..spec.warmup_requests {
        let r = request(spec, &mut rng, 0.0);
        submit(&mut engine, spec, &r).expect("warm-up request fits the queue");
    }
    engine.run_until_idle(u64::MAX);
    engine.drain_completions();
    engine
}

/// What the offline rounds of a run produced.
#[derive(Default)]
struct Offline {
    rounds: usize,
    tokens: usize,
    seconds: f64,
    /// Requests that did not complete.
    unfinished: usize,
}

/// Offline rounds of segment `k`: queue `backlog` requests at once and
/// drain them, while another round of the last one's length fits in
/// `seconds` (at least one round).
fn offline(
    spec: &ServeSpec,
    engine: &mut ServeEngine,
    seed: u64,
    k: u64,
    seconds: f64,
    total: &mut Offline,
) {
    let mut rng = SeedRng::new(seed, 0x0ff1 + k);
    let mut last_s = 0.0;
    let t0 = Instant::now();
    while last_s == 0.0 || t0.elapsed().as_secs_f64() + last_s <= seconds {
        let reqs: Vec<Req> = (0..spec.backlog)
            .map(|_| request(spec, &mut rng, 0.0))
            .collect();
        let r0 = Instant::now();
        for r in &reqs {
            submit(engine, spec, r).expect("backlog fits the queue");
        }
        engine.run_until_idle(u64::MAX);
        let done = engine.drain_completions();
        total.unfinished += done
            .iter()
            .filter(|c| c.reason != FinishReason::Completed)
            .count();
        total.tokens += done.iter().map(|c| c.tokens.len()).sum::<usize>();
        last_s = r0.elapsed().as_secs_f64();
        total.seconds += last_s;
        total.rounds += 1;
    }
}

/// One open-loop segment: its schedule and what happened to it.
struct Segment {
    reqs: Vec<Req>,
    open: OpenPhase,
}

impl Segment {
    fn completed(&self) -> impl Iterator<Item = (usize, &Fate)> {
        self.open
            .fates
            .iter()
            .enumerate()
            .filter(|(_, f)| f.done && !f.evicted)
    }

    fn ttft_ms(&self) -> Vec<f64> {
        self.completed()
            .filter_map(|(_, f)| f.ttft_s)
            .map(|s| s * 1e3)
            .collect()
    }

    fn tpot_ms(&self) -> Vec<f64> {
        self.completed()
            .filter_map(|(_, f)| f.tpot_s)
            .map(|s| s * 1e3)
            .collect()
    }

    fn step_ms(&self) -> Vec<f64> {
        self.open.step_ms.iter().map(|s| s.0).collect()
    }
}

pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::new(spec.params());
    let registry = LiveRegistry::new();
    let model_seed = seed.wrapping_mul(131).wrapping_add(17);
    let mut setup_s = Vec::new();
    let mut engine = None;
    for _ in 0..spec.setups {
        let t0 = Instant::now();
        let e = build(spec, model_seed, &registry);
        setup_s.push(t0.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up");

    // Open-loop segments, each followed by offline backlog rounds, so
    // that both phases sample the whole run. A traced run traces every
    // other segment and skips the offline rounds.
    let n = spec.segments;
    let open_s = seconds * spec.open_share / n as f64;
    let offline_s = seconds * (1.0 - spec.open_share) / n as f64;
    let mut spans = Spans::new(Instant::now());
    let mut segs = Vec::new();
    let mut offline_total = Offline::default();
    for k in 0..n {
        // The p99 latencies need at least 1000 pooled requests.
        let min = if trace { 0 } else { spec.min_segment_requests };
        let reqs = schedule(spec, seed, k as u64, open_s, min);
        let traced = trace && k % 2 == 1;
        let open = open_phase(spec, &mut engine, &reqs, traced, &mut spans);
        segs.push(Segment { reqs, open });
        if !trace {
            offline(
                spec,
                &mut engine,
                seed,
                k as u64,
                offline_s,
                &mut offline_total,
            );
        }
    }

    let sent: usize = segs.iter().map(|s| s.reqs.len()).sum();
    let completed: usize = segs.iter().map(|s| s.completed().count()).sum();
    let count = |f: fn(&Fate) -> bool| -> usize {
        segs.iter()
            .map(|s| s.open.fates.iter().filter(|x| f(x)).count())
            .sum()
    };
    let rejected = count(|f| f.rejected);
    let evicted = count(|f| f.evicted);
    let lag: Vec<f64> = segs
        .iter()
        .flat_map(|s| s.open.fates.iter().map(|f| f.lag_s * 1e3))
        .collect();
    out.attempted = sent as u64;
    out.failed = (sent - completed) as u64;
    out.note(format!(
        "requests sent={sent} completed={completed} rejected={rejected} evicted={evicted} generator_lag_p50_ms={} generator_lag_p99_ms={}",
        percentile(&lag, 0.5),
        percentile(&lag, 0.99)
    ));

    // Greedy outputs of a seeded sample of completed requests must equal
    // the reference continuation of the same prompt.
    let mut reference = {
        let mut cfg = spec.model.clone();
        cfg.seed = model_seed;
        Gpt::new(cfg)
    };
    let done: Vec<(&Req, &Fate)> = segs
        .iter()
        .flat_map(|s| s.completed().map(|(i, f)| (&s.reqs[i], f)))
        .collect();
    let mut rng = SeedRng::new(seed, 0xc4ec);
    let sample = spec.check_sample.min(done.len());
    let mut mismatches = 0;
    for _ in 0..sample {
        let (r, f) = done[rng.range(0, done.len() - 1)];
        if reference.greedy_continuation(&r.prompt, r.max_new) != f.tokens {
            mismatches += 1;
        }
    }
    out.check(Check::new(
        "greedy_outputs_match_reference",
        sample > 0 && mismatches == 0,
        format!("{mismatches} of {sample} sampled completions differ"),
    ));
    out.check(Check::new(
        "every_request_resolved",
        segs.iter()
            .all(|s| s.open.fates.iter().all(|f| f.done || f.rejected)),
        format!("{sent} sent"),
    ));

    if trace {
        serve_layers(
            spec, &segs, &engine, rejected, evicted, &lag, &mut spans, &mut out,
        );
        out.spans = Some(spans);
        return out;
    }

    out.attempted += (offline_total.rounds * spec.backlog) as u64;
    out.failed += offline_total.unfinished as u64;
    out.note(format!(
        "offline rounds={} backlog={}",
        offline_total.rounds, spec.backlog
    ));

    // p50 and p90 are medians over the segments of each segment's
    // percentile (see `stats::windowed_percentile`); a segment holds too
    // few requests for a p95 or p99, which pool every segment.
    let by_segment = |f: fn(&Segment) -> Vec<f64>, q: f64| -> f64 {
        median(
            &segs
                .iter()
                .map(|s| percentile(&f(s), q))
                .collect::<Vec<_>>(),
        )
    };
    let pooled = |f: fn(&Segment) -> Vec<f64>, q: f64| -> f64 {
        percentile(&segs.iter().flat_map(f).collect::<Vec<_>>(), q)
    };
    // Requests sent that completed within both limits; rejected and
    // evicted requests count as misses.
    let meets: usize = segs
        .iter()
        .map(|s| {
            s.completed()
                .filter(|(_, f)| {
                    f.ttft_s.is_some_and(|t| t * 1e3 <= spec.ttft_slo_ms)
                        && f.tpot_s.is_none_or(|t| t * 1e3 <= spec.tpot_slo_ms)
                })
                .count()
        })
        .sum();
    let tokens: usize = segs
        .iter()
        .flat_map(|s| s.completed().map(|(_, f)| f.tokens.len()))
        .sum();
    let wall: f64 = segs.iter().map(|s| s.open.wall_s).sum();
    out.metric(Metric::new(
        "tokens_per_s",
        tokens as f64 / wall,
        "tokens/s",
    ));
    out.metric(Metric::new(
        "step_p50_ms",
        by_segment(Segment::step_ms, 0.5),
        "ms",
    ));
    out.metric(Metric::new(
        "step_p90_ms",
        by_segment(Segment::step_ms, 0.9),
        "ms",
    ));
    out.metric(Metric::new("setup_s", median(&setup_s), "s"));
    out.metric(Metric::new(
        "ttft_p50_ms",
        by_segment(Segment::ttft_ms, 0.5),
        "ms",
    ));
    out.metric(Metric::new(
        "ttft_p99_ms",
        pooled(Segment::ttft_ms, 0.99),
        "ms",
    ));
    out.metric(Metric::new(
        "tpot_p50_ms",
        by_segment(Segment::tpot_ms, 0.5),
        "ms",
    ));
    out.metric(Metric::new(
        "tpot_p95_ms",
        pooled(Segment::tpot_ms, 0.95),
        "ms",
    ));
    out.metric(Metric::new(
        "slo_attainment",
        meets as f64 / sent as f64,
        "fraction",
    ));
    out.metric(Metric::new(
        "capacity_tokens_per_s",
        offline_total.tokens as f64 / offline_total.seconds,
        "tokens/s",
    ));
    out
}

#[allow(clippy::too_many_arguments)]
fn serve_layers(
    spec: &ServeSpec,
    segs: &[Segment],
    engine: &ServeEngine,
    rejected: usize,
    evicted: usize,
    lag: &[f64],
    spans: &mut Spans,
    out: &mut Outcome,
) {
    let all = |f: fn(&OpenPhase) -> &Vec<f64>| -> Vec<f64> {
        segs.iter()
            .flat_map(|s| f(&s.open).iter().copied())
            .collect()
    };
    let steps: Vec<(f64, bool)> = segs
        .iter()
        .flat_map(|s| s.open.step_ms.iter().copied())
        .collect();
    let traced: Vec<f64> = steps.iter().filter(|s| s.1).map(|s| s.0).collect();
    let untraced: Vec<f64> = steps.iter().filter(|s| !s.1).map(|s| s.0).collect();
    let gemm_ms = all(|o| &o.gemm_ms);
    let flops_all = all(|o| &o.flops);
    let gemm = median(&gemm_ms);
    let flops = mean(&flops_all);
    let gflops = flops_all.iter().sum::<f64>() / gemm_ms.iter().sum::<f64>() * 1e-6;
    let peak = crate::peak_gflops();
    out.layer("tensor.gemm_ms", gemm, "ms");
    out.layer("tensor.flops_per_step", flops, "flop");
    out.layer("tensor.gflops", gflops, "Gflop/s");
    out.layer("tensor.peak_gflops", peak, "Gflop/s");
    out.layer("tensor.flop_ms", flops / peak * 1e-6, "ms");
    out.layer(
        "tensor.overhead_ms",
        mean(&gemm_ms) - flops / peak * 1e-6,
        "ms",
    );
    out.layer(
        "tensor.packed_bytes_per_step",
        mean(&all(|o| &o.packed_bytes)),
        "bytes",
    );
    crate::train::collective_layers(out, &BTreeMap::new(), &BTreeMap::new());

    // Prefill by prompt-length bucket and single-token decode, timed on
    // the served model with the workload's prompts.
    let model = engine.model().clone();
    let mut short = Vec::new();
    let mut long = Vec::new();
    let mut dec = Vec::new();
    let mut dec_gemm = Vec::new();
    let mut cache = KvCache::for_model(&model.cfg);
    for (i, r) in segs[0].reqs.iter().take(200).enumerate() {
        cache.reset();
        let name = if r.prompt.len() > spec.short_prompt.1 {
            "lm.prefill_long"
        } else {
            "lm.prefill_short"
        };
        let (id, logits) = spans.time(name, None, i as u64, || {
            decode::prefill(&model, &r.prompt, &mut cache)
        });
        let ms = spans.get(id).duration() * 1e3;
        if r.prompt.len() > spec.short_prompt.1 {
            long.push(ms);
        } else {
            short.push(ms);
        }
        let mut tok = decode::argmax(logits.row(r.prompt.len() - 1));
        for _ in 1..r.max_new {
            let _ = take_gemm_phase();
            let (id, row) = spans.time("lm.decode_step", None, i as u64, || {
                decode::decode_step(&model, tok, &mut cache)
            });
            dec_gemm.push(take_gemm_phase().total_seconds() * 1e3);
            dec.push(spans.get(id).duration() * 1e3);
            tok = decode::argmax(&row);
        }
    }
    out.layer("lm.prefill_short_ms", median(&short), "ms");
    out.layer("lm.prefill_long_ms", median(&long), "ms");
    out.layer("lm.decode_step_ms", median(&dec), "ms");
    out.layer("lm.gemm_ms_per_token", median(&dec_gemm), "ms");

    let done: Vec<&Fate> = segs
        .iter()
        .flat_map(|s| s.open.fates.iter().filter(|f| f.done))
        .collect();
    out.layer("serve.step_p50_ms", median(&traced), "ms");
    out.layer("serve.step_p99_ms", percentile(&traced, 0.99), "ms");
    out.layer(
        "serve.batch_streams",
        mean(&all(|o| &o.batch_streams)),
        "count",
    );
    out.layer(
        "serve.tokens_per_step",
        mean(&all(|o| &o.tokens_per_step)),
        "count",
    );
    let waits: Vec<f64> = done
        .iter()
        .filter_map(|f| f.wait_steps)
        .map(|w| w as f64)
        .collect();
    out.layer("serve.queue_wait_steps", mean(&waits), "count");
    out.layer("serve.queue_depth", mean(&all(|o| &o.queue_depth)), "count");
    out.layer("serve.rejected", rejected as f64, "count");
    out.layer("serve.evicted", evicted as f64, "count");
    out.layer("serve.generator_lag_ms", percentile(lag, 0.99), "ms");
    let q: Vec<f64> = done
        .iter()
        .filter_map(|f| f.queue_s)
        .map(|s| s * 1e3)
        .collect();
    let a: Vec<f64> = done
        .iter()
        .filter_map(|f| f.admit_step_s)
        .map(|s| s * 1e3)
        .collect();
    out.layer("serve.ttft_queue_ms", median(&q), "ms");
    out.layer("serve.ttft_prefill_ms", median(&a), "ms");
    let u = median(&untraced);
    let t = median(&traced);
    out.layer("bench.step_untraced_ms", u, "ms");
    out.layer("bench.step_traced_ms", t, "ms");
    out.layer("bench.trace_overhead_frac", (t - u) / u, "fraction");
}
