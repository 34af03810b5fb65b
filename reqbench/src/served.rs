//! The served workload: the same request path behind `m3d-serve`, driven
//! by one closed-loop client on one connection. Every reply is compared
//! byte for byte with the frame the offline path would produce.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use m3d_diagnosis::Diagnoser;
use m3d_fault_localization::{FrameworkConfig, InjectionKind, ModelConfig, PolicyAction};
use m3d_serve::proto::{encode_frame, read_frame, wire_candidates, Decoder, StatsSnapshot};
use m3d_serve::{spawn_server, ArtifactBundle, BundleSource, BundleSpec, Request, Response};
use m3d_serve::{RunningServer, ServeConfig};
use m3d_tdf::write_failure_log;

use crate::batch::{self, render, test_seed};
use crate::chips::{self, PoolSpec};
use crate::runner;
use crate::setup::{self, SetupSpec};
use crate::stats::{self, ms, quantile, Digest, Metrics, Outcome, Quality};
use crate::Args;

/// One served workload.
pub struct ServedWorkload {
    pub spec: BundleSpec,
    /// The test chips, cycled in whole passes.
    pub pool: PoolSpec,
    /// Server start-ups per run (`setup_s` is their median).
    pub setup_reps: usize,
}

/// A framed client connection.
struct Client {
    stream: TcpStream,
    dec: Decoder,
}

impl Client {
    fn connect(server: &RunningServer) -> Result<Client, String> {
        let stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // Generous: the first reply waits for the whole artifact load.
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        Ok(Client {
            stream,
            dec: Decoder::new(),
        })
    }

    /// Sends one pre-encoded frame and reads the full reply line.
    fn exchange(&mut self, frame: &[u8]) -> Result<String, String> {
        self.stream
            .write_all(frame)
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("send: {e}"))?;
        match read_frame(&mut self.stream, &mut self.dec) {
            Ok(Some(line)) => Ok(line),
            Ok(None) => Err("server closed the connection".into()),
            Err(e) => Err(format!("reply: {e}")),
        }
    }

    fn request(&mut self, req: &Request) -> Result<Response, String> {
        let line = self.exchange(&encode_frame(&req.encode()))?;
        Response::parse(&line).map_err(|e| e.to_string())
    }
}

/// Starts a server and waits until it answers a ping on a fresh connection
/// (it accepts connections only once the artifact bundle is loaded).
fn start(spec: &BundleSpec, cfg: &ServeConfig) -> Result<(RunningServer, Client), String> {
    let server = spawn_server(spec, cfg)?;
    let mut client = Client::connect(&server)?;
    match client.request(&Request::Ping { id: 0 })? {
        Response::Pong { .. } => Ok((server, client)),
        other => Err(format!("unexpected answer to ping: {other:?}")),
    }
}

/// Asks the server to drain, then waits for its thread to end.
fn stop(server: RunningServer, mut client: Client) -> Result<(), String> {
    client.request(&Request::Shutdown { id: 0 })?;
    drop(client);
    server.join().map(drop)
}

/// One log of the pool with its request frame and the expected reply.
struct Case {
    frame: Vec<u8>,
    expected: String,
    compute_ms: f64,
    diagnose_ms: f64,
    back_trace_ms: f64,
    enhance_us: f64,
    action: PolicyAction,
}

pub fn run(w: &ServedWorkload, args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let cfg = ServeConfig {
        pool_width: m3d_par::num_threads(),
        ..ServeConfig::default()
    };
    // The whole run, the server it talks to included, stays on one CPU.
    // Spread over two CPUs of a 2-vCPU VM, a run right after a batch run
    // read 73–78 requests/s and p90 16 ms for its whole life, against
    // 95–97 and 12 ms in the run after it; pinned, 95–98 and 12 ms in
    // both. The server's pool width stays nproc, as read into `cfg`
    // before the pin.
    let cpu = pin_to_one_cpu()?;
    eprintln!("serving on cpu {cpu}");
    // Set-up: from start-up until the server answers its first request.
    let mut setup_s = Vec::new();
    for rep in 0..w.setup_reps {
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let (server, client) = start(&w.spec, &cfg)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        eprintln!("set-up {}: {:.2}s", rep + 1, t0.elapsed().as_secs_f64());
        stop(server, client)?;
    }
    let (server, mut client) = start(&w.spec, &cfg)?;

    // The offline reference: the same bundle, the same request path.
    let bundle = ArtifactBundle::load(&w.spec)?;
    let localizer = bundle.localizer.as_ref().ok_or("bundle has no localizer")?;
    let fsim = bundle.env.fault_sim();
    let diagnoser = Diagnoser::new(&fsim, &bundle.env.scan, bundle.mode, bundle.diag_cfg);
    let pool = chips::draw_pool(
        &bundle.env,
        &fsim,
        bundle.mode,
        w.pool,
        test_seed(args.seed),
    );
    let mut quality = Quality::default();
    let mut digest = Digest::default();
    let mut cases = Vec::with_capacity(pool.len());
    for (i, s) in pool.iter().enumerate() {
        let t0 = Instant::now();
        let report = diagnoser.diagnose(&s.log);
        let t1 = Instant::now();
        let sample = bundle.sample_for(&fsim, &s.log);
        let t2 = Instant::now();
        let outcome = localizer.enhance(&bundle.env.design, &report, &sample);
        let t3 = Instant::now();
        let report = outcome.report;
        quality.add(report.resolution(), report.first_hit_index(&s.injected));
        digest.add(render(&report, outcome.action).as_bytes());
        let id = i as u64 + 1;
        let action = match outcome.action {
            PolicyAction::Reorder => "reorder",
            PolicyAction::Prune => "prune",
            PolicyAction::PassThrough => "pass_through",
            PolicyAction::Degraded => "degraded",
        };
        let expected = Response::Report {
            id,
            degraded: report.degraded(),
            enhanced: true,
            action: Some(action.to_string()),
            text: report.to_string(),
            candidates: wire_candidates(&report),
        }
        .encode();
        let request = Request::Diagnose {
            id,
            log: write_failure_log(&s.log),
            deadline_ms: None,
            no_enhance: false,
        };
        cases.push(Case {
            frame: encode_frame(&request.encode()),
            expected,
            compute_ms: ms(t3 - t0),
            diagnose_ms: ms(t1 - t0),
            back_trace_ms: ms(t2 - t1),
            enhance_us: (t3 - t2).as_secs_f64() * 1e6,
            action: outcome.action,
        });
    }
    println!(
        "digest {} seed={} reports={} {}",
        args.workload,
        args.seed,
        pool.len(),
        digest.hex()
    );

    // Closed loop: one request in flight, whole passes over the pool.
    let timed = runner::passes(
        cases.len(),
        args.seconds,
        1,
        args.trace,
        |i, _| match client.exchange(&cases[i].frame) {
            Ok(line) if line == cases[i].expected => true,
            Ok(line) => {
                eprintln!("log {i}: served reply differs from the offline report: {line}");
                false
            }
            Err(e) => {
                eprintln!("log {i}: {e}");
                if let Ok(fresh) = Client::connect(&server) {
                    client = fresh;
                }
                false
            }
        },
    );
    let snapshot = match client.request(&Request::Stats { id: 0 })? {
        Response::Stats { snapshot, .. } => snapshot,
        other => return Err(format!("unexpected answer to stats: {other:?}")),
    };
    stop(server, client)?;

    let mut m = Metrics::default();
    if args.trace {
        // Set-up per call, outside the server, with the bundle's settings.
        let spec = layer_spec(&w.spec)?;
        let layers = setup::with_setup(&spec, true, |_, layers| layers);
        setup::check_layers(&layers, &bundle.env)?;
        setup::put_layers(&mut m, &[layers]);
        // Each traced request against the offline compute of its own log.
        let (served, compute): (Vec<f64>, Vec<f64>) = timed
            .paired_ms
            .iter()
            .map(|&(i, [_, traced])| (traced, cases[i].compute_ms))
            .unzip();
        let overhead: Vec<f64> = served.iter().zip(&compute).map(|(l, c)| l - c).collect();
        let (served_ms, compute_ms) = (served.iter().sum::<f64>(), compute.iter().sum::<f64>());
        m.put("serve.compute_ms", compute_ms / compute.len() as f64, "ms");
        m.put("serve.overhead_ms", stats::median(&overhead), "ms");
        m.put("share.compute_pct", compute_ms / served_ms * 100.0, "%");
        m.put(
            "share.overhead_pct",
            (served_ms - compute_ms) / served_ms * 100.0,
            "%",
        );
        put_stats_counters(&mut m, &snapshot);
        // The offline path's own layers, once per pool log.
        let col = |f: fn(&Case) -> f64| cases.iter().map(f).collect::<Vec<_>>();
        m.put("core.enhance_us", stats::mean(&col(|c| c.enhance_us)), "us");
        batch::put_actions(&mut m, cases.iter().map(|c| c.action), 1.0);
        batch::put_call_times(
            &mut m,
            &col(|c| c.diagnose_ms),
            &col(|c| c.back_trace_ms),
            1.0,
        );
        m.put("trace.latency_p50_ms", quantile(&served, 0.5), "ms");
        let entries: usize = pool.iter().map(|c| c.log.len()).sum();
        m.put(
            "dft.entries_per_log",
            entries as f64 / pool.len() as f64,
            "count",
        );
        m.put("host.passes", timed.passes as f64, "count");
        runner::put_obs_overhead(&mut m, &timed.paired_ms);
    } else {
        let lat = &timed.latency_ms;
        m.put("setup_s", stats::median(&setup_s), "s");
        m.put("logs_per_s", lat.len() as f64 / timed.wall_s, "1/s");
        m.put("latency_p50_ms", quantile(lat, 0.5), "ms");
        m.put("latency_p90_ms", quantile(lat, 0.9), "ms");
        m.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
        quality.put(&mut m);
        m.put(
            "success_rate",
            1.0 - timed.failed as f64 / timed.attempted as f64,
            "ratio",
        );
    }
    Ok(Outcome {
        attempted: timed.attempted,
        failed: timed.failed,
        metrics: m,
    })
}

/// The set-up that `ArtifactBundle::load` performs for `spec`, spelled out
/// call by call.
fn layer_spec(spec: &BundleSpec) -> Result<SetupSpec, String> {
    let BundleSource::Generated {
        bench,
        target: Some(target),
    } = spec.source
    else {
        return Err("served workload needs a generated, sized bundle".into());
    };
    let mut model = ModelConfig {
        seed: spec.model_seed,
        ..ModelConfig::default()
    };
    model.train.epochs = spec.epochs;
    Ok(SetupSpec {
        bench,
        target,
        mode: spec.mode(),
        train_kind: InjectionKind::Single,
        train_seed: spec.sample_seed,
        framework: FrameworkConfig {
            model,
            ..FrameworkConfig::default()
        },
    })
}

/// The server's own counters from its `Stats` frame.
fn put_stats_counters(m: &mut Metrics, s: &StatsSnapshot) {
    for (name, v) in [
        ("serve.completed", s.completed),
        ("serve.degraded", s.degraded),
        ("serve.overloaded", s.overloaded),
        ("serve.deadline_exceeded", s.deadline_exceeded),
        ("serve.protocol_errors", s.protocol_errors),
        ("serve.panics_contained", s.panics_contained),
    ] {
        m.put(name, v as f64, "count");
    }
}

/// Restricts the calling thread, and so every thread it starts from now
/// on, to the last CPU it may run on. Returns that CPU.
fn pin_to_one_cpu() -> Result<usize, String> {
    // glibc's `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    const BYTES: usize = WORDS * 8;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let os_err = |call: &str| format!("{call}: {}", std::io::Error::last_os_error());
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is `BYTES` long; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, BYTES, mask.as_mut_ptr()) } != 0 {
        return Err(os_err("sched_getaffinity"));
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, BYTES, one.as_ptr()) } != 0 {
        return Err(os_err("sched_setaffinity"));
    }
    Ok(cpu)
}
