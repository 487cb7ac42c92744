//! The job server: session handling, admission control, the FIFO
//! scheduler, and the two submission caches.
//!
//! One [`Server::start`] call binds the listen socket and spawns the
//! accept loop plus [`ServeConfig::max_concurrent`] worker threads.
//! Sessions are thread-per-connection; a session submits jobs into one
//! shared FIFO queue under per-tenant quotas, and workers multiplex the
//! admitted jobs onto the shared `cfr-node` fleet — each job through
//! its own [`JobDriver`](freeride_dist::JobDriver) with its own
//! recorder and a `job<id>` checkpoint namespace, so concurrent jobs
//! are bit-identical to serial one-shot `Coordinator` runs of the same
//! config.
//!
//! Two caches make repeat submissions cheap:
//!
//! * **compiled-program cache** — Chapel sources are compiled once per
//!   `(source hash, opt level)` and shared as
//!   [`CompiledProgram`](cfr_core::CompiledProgram); a repeat
//!   submission goes straight to `run_compiled`, so its trace carries
//!   no `frontend.*`, `sema.*`, or `core.compile` spans.
//! * **dataset cache** — task submissions validate their `.frds` file
//!   once per `(length, mtime)`; repeats skip the header read.
//!
//! The server trace lays every job side by side: server spans on `pid`
//! 0, each job's merged trace flattened onto `pid` = job id.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};

use cfr_core::{CompiledProgram, OptLevel, Translator};
use chapel_interp::RtValue;
use freeride_dist::{tasks, ClusterConfig, DistError, JobDriver};
use obs::{
    render_prometheus, AttrValue, FlightRecorder, MetricsSnapshot, Recorder, Trace, TraceLevel,
};

use crate::error::ServeError;
use crate::http;
use crate::proto::{
    job_state, read_message, write_message, JobRow, JobSpec, Message, ServerStatus, TenantStatus,
};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Addresses of the `cfr-node` fleet task jobs run on. Every node
    /// must serve sessions concurrently (`cfr-node --concurrent` or
    /// [`freeride_dist::LoopbackCluster::spawn_concurrent`]), since the
    /// server multiplexes jobs onto the fleet.
    pub nodes: Vec<SocketAddr>,
    /// Shared-secret session token; empty accepts any client.
    pub token: String,
    /// Worker threads, i.e. jobs running at once. Default 2.
    pub max_concurrent: usize,
    /// Max jobs one tenant may have admitted (queued + running) at
    /// once; further submissions are rejected. Default 8.
    pub tenant_max_queued: usize,
    /// Max jobs of one tenant running at once; excess stays queued
    /// while other tenants' jobs overtake. Default 2.
    pub tenant_max_running: usize,
    /// Tracing level for the server and every job it runs.
    pub trace: TraceLevel,
    /// Read timeout on every coordinator → node socket.
    pub read_timeout: Duration,
    /// Root directory for per-job checkpoints; each job checkpoints
    /// into its own `job-job<id>` namespace. `None` disables
    /// checkpointing (and checkpoint-based job retries).
    pub checkpoint_root: Option<PathBuf>,
    /// How many times a failed task job is retried (resuming from its
    /// newest own checkpoint when one exists). Default 1.
    pub job_retries: usize,
    /// Bind address for the HTTP telemetry endpoint (`/metrics`,
    /// `/healthz`, `/readyz`). `None` (the default) disables it. The
    /// server's metrics hub records regardless of [`ServeConfig::trace`],
    /// so live telemetry works with span recording off.
    pub metrics_listen: Option<String>,
    /// Elastic scheduling policy applied to every task job on the
    /// fleet: shard work-stealing and the declarative placement
    /// policy. `join_listen` is ignored here — a shared daemon cannot
    /// hand one membership hub to concurrent jobs — so membership
    /// stays fixed at the configured fleet. Default is fully static.
    pub elastic: freeride_dist::ElasticPolicy,
}

impl ServeConfig {
    /// A config for `nodes` with the documented defaults.
    pub fn new(nodes: Vec<SocketAddr>) -> ServeConfig {
        ServeConfig {
            nodes,
            token: String::new(),
            max_concurrent: 2,
            tenant_max_queued: 8,
            tenant_max_running: 2,
            trace: TraceLevel::Off,
            read_timeout: Duration::from_secs(10),
            checkpoint_root: None,
            job_retries: 1,
            metrics_listen: None,
            elastic: freeride_dist::ElasticPolicy::default(),
        }
    }
}

/// A finished job's payload, as stored until the client collects it.
#[derive(Debug, Clone)]
struct JobOutput {
    state: Vec<f64>,
    robj: Vec<u8>,
    globals: Vec<(String, Vec<f64>)>,
    trace_bin: Vec<u8>,
}

#[derive(Debug, Clone)]
enum JobStatus {
    Queued,
    Running,
    Done(JobOutput),
    Failed(String),
}

struct Job {
    tenant: String,
    spec: JobSpec,
    status: JobStatus,
    /// Admission instant, for the queue-wait histogram.
    submitted: Instant,
}

#[derive(Clone, PartialEq)]
struct DatasetMeta {
    len: u64,
    mtime: Option<SystemTime>,
}

struct Inner {
    queue: VecDeque<u64>,
    jobs: HashMap<u64, Job>,
    next_job: u64,
    running: usize,
    tenant_running: HashMap<String, usize>,
    tenant_active: HashMap<String, usize>,
    completed: u32,
    failed: u32,
    /// Keyed by (source hash, opt level, kernel backend): a compiled
    /// program bakes its runner choice in, so interpreted and compiled
    /// requests for the same source must not share an entry.
    program_cache: HashMap<(u64, u8, u8), Arc<CompiledProgram>>,
    dataset_cache: HashMap<PathBuf, DatasetMeta>,
    program_cache_hits: u32,
    program_cache_misses: u32,
    dataset_cache_hits: u32,
    dataset_cache_misses: u32,
    /// Server spans on `pid` 0, finished jobs flattened onto `pid` =
    /// job id.
    server_trace: Trace,
    /// Fleet-wide metrics aggregate: each finished job's telemetry
    /// snapshot merges here (counters add, histograms add per bucket),
    /// so `/metrics` and `Top` see the whole service's history, not
    /// just the jobs still resident.
    fleet_metrics: MetricsSnapshot,
    stopping: bool,
}

struct Shared {
    cfg: ServeConfig,
    recorder: Arc<Recorder>,
    inner: Mutex<Inner>,
    /// Signals workers: queue changed, or stopping.
    work_cv: Condvar,
    /// Signals waiters: a job finished, or the server drained.
    done_cv: Condvar,
    next_session: AtomicU64,
}

/// The job server. See the module docs for the architecture.
pub struct Server;

impl Server {
    /// Bind `listen`, spawn the accept loop and the worker pool, and
    /// return the handle controlling the server's lifetime.
    pub fn start(cfg: ServeConfig, listen: &str) -> Result<ServerHandle, ServeError> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let recorder = Arc::new(Recorder::new(cfg.trace));
        // The server hub is always on: queue depth, job counters, and
        // cache hit rates are cheap, and /metrics must work even when
        // span tracing is off.
        recorder.hub().set_enabled(true);
        let metrics_listener = match &cfg.metrics_listen {
            Some(listen) => Some(TcpListener::bind(listen)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let workers_n = cfg.max_concurrent.max(1);
        let shared = Arc::new(Shared {
            cfg,
            recorder,
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                next_job: 1,
                running: 0,
                tenant_running: HashMap::new(),
                tenant_active: HashMap::new(),
                completed: 0,
                failed: 0,
                program_cache: HashMap::new(),
                dataset_cache: HashMap::new(),
                program_cache_hits: 0,
                program_cache_misses: 0,
                dataset_cache_hits: 0,
                dataset_cache_misses: 0,
                server_trace: Trace::default(),
                fleet_metrics: MetricsSnapshot::default(),
                stopping: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next_session: AtomicU64::new(1),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        let metrics = metrics_listener.map(|listener| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || metrics_loop(&listener, &shared))
        });
        let workers = (0..workers_n)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        Ok(ServerHandle {
            addr,
            metrics_addr,
            shared,
            accept: Some(accept),
            metrics,
            workers,
        })
    }
}

/// Controls a running server: its address, and the two ways to bring
/// it down (client-initiated via [`ServerHandle::wait`], owner-initiated
/// via [`ServerHandle::stop`]). Either way, already-admitted jobs drain
/// before the threads are joined.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    metrics: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound HTTP telemetry address, when
    /// [`ServeConfig::metrics_listen`] asked for one.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Stop admitting jobs, drain the queue, and join the threads.
    pub fn stop(mut self) {
        {
            let mut inner = self.shared.inner.lock().expect("serve lock");
            inner.stopping = true;
        }
        self.shared.work_cv.notify_all();
        self.shared.done_cv.notify_all();
        self.shutdown();
    }

    /// Block until a client's `StopServer` drains the queue, then join
    /// the threads. This is the daemon main loop.
    pub fn wait(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        {
            let mut inner = self.shared.inner.lock().expect("serve lock");
            while !(inner.stopping && inner.queue.is_empty() && inner.running == 0) {
                inner = self.shared.done_cv.wait(inner).expect("serve lock");
            }
        }
        self.shared.work_cv.notify_all();
        // The accept loops block in accept(); poke them so they observe
        // the stop flag and exit.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(addr) = self.metrics_addr {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
        if let Some(h) = self.metrics.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

// ---- accept + session ------------------------------------------------

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let (stream, _peer) = match listener.accept() {
            Ok(s) => s,
            Err(_) => return,
        };
        if shared.inner.lock().expect("serve lock").stopping {
            return;
        }
        let shared = Arc::clone(shared);
        // Session threads are detached: they end when their client
        // disconnects, and any that outlive the handle die with the
        // process.
        std::thread::spawn(move || {
            if let Err(e) = handle_session(stream, &shared) {
                eprintln!("cfr-serve: session error: {e}");
            }
        });
    }
}

fn handle_session(mut stream: TcpStream, shared: &Shared) -> Result<(), ServeError> {
    stream.set_nodelay(true).ok();
    let mut authed = false;
    let mut tenant = String::new();
    loop {
        let msg = match read_message(&mut stream) {
            Ok(m) => m,
            // EOF (client went away) ends the session quietly.
            Err(ServeError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Ok(())
            }
            Err(e) => return Err(e),
        };
        match msg {
            Message::ClientHello { tenant: who, token } => {
                if !shared.cfg.token.is_empty() && token != shared.cfg.token {
                    write_message(
                        &mut stream,
                        &Message::Error {
                            message: "bad token".into(),
                        },
                    )?;
                    return Ok(());
                }
                authed = true;
                tenant = who;
                let session = shared.next_session.fetch_add(1, Ordering::Relaxed);
                write_message(&mut stream, &Message::Welcome { session })?;
            }
            Message::Submit { spec } => {
                if !authed {
                    write_message(
                        &mut stream,
                        &Message::Error {
                            message: "Submit before ClientHello".into(),
                        },
                    )?;
                    return Ok(());
                }
                let reply = admit(shared, &tenant, spec);
                write_message(&mut stream, &reply)?;
            }
            Message::Wait { job_id } => {
                let reply = wait_for(shared, job_id);
                write_message(&mut stream, &reply)?;
            }
            Message::Status => {
                let status = status_snapshot(shared);
                write_message(&mut stream, &Message::StatusReport { status })?;
            }
            Message::Top => {
                let report = top_report(shared);
                write_message(&mut stream, &report)?;
            }
            Message::DumpTrace => {
                let chrome_json = {
                    let mut inner = shared.inner.lock().expect("serve lock");
                    let drained = shared.recorder.drain();
                    inner.server_trace.merge_as(0, drained);
                    inner.server_trace.chrome_json()
                };
                write_message(&mut stream, &Message::TraceDump { chrome_json })?;
            }
            Message::StopServer => {
                {
                    let mut inner = shared.inner.lock().expect("serve lock");
                    inner.stopping = true;
                }
                shared.work_cv.notify_all();
                shared.done_cv.notify_all();
                write_message(&mut stream, &Message::Stopping)?;
            }
            Message::Bye => return Ok(()),
            other => {
                write_message(
                    &mut stream,
                    &Message::Error {
                        message: format!("unexpected {} from client", other.kind_name()),
                    },
                )?;
                return Ok(());
            }
        }
    }
}

// ---- admission -------------------------------------------------------

fn admit(shared: &Shared, tenant: &str, spec: JobSpec) -> Message {
    if let Err(reason) = validate_spec(shared, &spec) {
        return Message::Rejected { reason };
    }
    let mut inner = shared.inner.lock().expect("serve lock");
    if inner.stopping {
        return Message::Rejected {
            reason: "server is stopping".into(),
        };
    }
    let active = inner.tenant_active.get(tenant).copied().unwrap_or(0);
    if active >= shared.cfg.tenant_max_queued {
        return Message::Rejected {
            reason: format!(
                "tenant `{tenant}` quota exhausted: {active} jobs already queued or running \
                 (limit {})",
                shared.cfg.tenant_max_queued
            ),
        };
    }
    let job_id = inner.next_job;
    inner.next_job += 1;
    inner.jobs.insert(
        job_id,
        Job {
            tenant: tenant.to_string(),
            spec,
            status: JobStatus::Queued,
            submitted: Instant::now(),
        },
    );
    inner.queue.push_back(job_id);
    *inner.tenant_active.entry(tenant.to_string()).or_insert(0) += 1;
    let depth = inner.queue.len();
    drop(inner);
    let hub = shared.recorder.hub();
    hub.add("serve.jobs_submitted", 1);
    hub.gauge("serve.queued", depth as f64);
    shared.recorder.instant(
        TraceLevel::Phases,
        "serve.submit",
        "serve",
        0,
        vec![
            ("job", AttrValue::Int(job_id as i64)),
            ("tenant", AttrValue::Str(tenant.to_string())),
        ],
    );
    shared.work_cv.notify_all();
    Message::Submitted { job_id }
}

/// Cheap validity checks at admission time, so a bad submission is a
/// synchronous `Rejected` instead of a queued job that fails later.
fn validate_spec(shared: &Shared, spec: &JobSpec) -> Result<(), String> {
    match spec {
        JobSpec::Task {
            task,
            params,
            dataset,
            ..
        } => {
            tasks::layout(task, params).map_err(|e| e.to_string())?;
            validate_dataset(shared, dataset)
        }
        JobSpec::Chapel { opt, .. } => opt_level(*opt).map(|_| ()).ok_or(format!(
            "unknown opt level {opt} (expected 0 = generated, 1 = opt-1, 2 = opt-2)"
        )),
    }
}

/// Validate a task job's dataset, through the dataset cache: a path
/// whose `(length, mtime)` already validated skips the header read.
fn validate_dataset(shared: &Shared, dataset: &str) -> Result<(), String> {
    let path = PathBuf::from(dataset);
    let fsmeta =
        std::fs::metadata(&path).map_err(|e| format!("cannot read dataset {dataset}: {e}"))?;
    let meta = DatasetMeta {
        len: fsmeta.len(),
        mtime: fsmeta.modified().ok(),
    };
    let mut inner = shared.inner.lock().expect("serve lock");
    if inner.dataset_cache.get(&path) == Some(&meta) {
        inner.dataset_cache_hits += 1;
        shared.recorder.add_counter("serve.dataset_cache_hits", 1);
        shared.recorder.hub().add("serve.dataset_cache_hits", 1);
        return Ok(());
    }
    freeride::source::FileDataset::open(&path)
        .map_err(|e| format!("invalid dataset {dataset}: {e}"))?;
    inner.dataset_cache.insert(path, meta);
    inner.dataset_cache_misses += 1;
    shared.recorder.add_counter("serve.dataset_cache_misses", 1);
    shared.recorder.hub().add("serve.dataset_cache_misses", 1);
    Ok(())
}

fn opt_level(opt: u8) -> Option<OptLevel> {
    match opt {
        0 => Some(OptLevel::Generated),
        1 => Some(OptLevel::Opt1),
        2 => Some(OptLevel::Opt2),
        _ => None,
    }
}

// ---- waiting + status ------------------------------------------------

fn wait_for(shared: &Shared, job_id: u64) -> Message {
    let mut inner = shared.inner.lock().expect("serve lock");
    loop {
        match inner.jobs.get(&job_id) {
            None => {
                return Message::Error {
                    message: format!("unknown job {job_id}"),
                }
            }
            Some(job) => match &job.status {
                JobStatus::Done(out) => {
                    return Message::JobResult {
                        job_id,
                        state: out.state.clone(),
                        robj: out.robj.clone(),
                        globals: out.globals.clone(),
                        trace: out.trace_bin.clone(),
                    }
                }
                JobStatus::Failed(message) => {
                    return Message::JobFailed {
                        job_id,
                        message: message.clone(),
                    }
                }
                JobStatus::Queued | JobStatus::Running => {
                    inner = shared.done_cv.wait(inner).expect("serve lock");
                }
            },
        }
    }
}

fn status_snapshot(shared: &Shared) -> ServerStatus {
    let inner = shared.inner.lock().expect("serve lock");
    status_of(&inner)
}

fn status_of(inner: &Inner) -> ServerStatus {
    // Tenants sorted by name, so repeated scrapes render stably.
    let mut tenants: Vec<TenantStatus> = inner
        .tenant_active
        .iter()
        .filter(|(_, active)| **active > 0)
        .map(|(tenant, active)| TenantStatus {
            tenant: tenant.clone(),
            active: *active as u32,
            running: inner.tenant_running.get(tenant).copied().unwrap_or(0) as u32,
        })
        .collect();
    tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    ServerStatus {
        queued: inner.queue.len() as u32,
        running: inner.running as u32,
        completed: inner.completed,
        failed: inner.failed,
        program_cache_hits: inner.program_cache_hits,
        program_cache_misses: inner.program_cache_misses,
        dataset_cache_hits: inner.dataset_cache_hits,
        dataset_cache_misses: inner.dataset_cache_misses,
        tenants,
        queue: inner.queue.iter().copied().collect(),
    }
}

/// Build a [`Message::TopReport`]: the status snapshot, every resident
/// job as a row in job-id order, and the fleet-wide metrics aggregate
/// as an `FRMT` frame.
fn top_report(shared: &Shared) -> Message {
    let inner = shared.inner.lock().expect("serve lock");
    let status = status_of(&inner);
    let mut ids: Vec<u64> = inner.jobs.keys().copied().collect();
    ids.sort_unstable();
    let jobs = ids
        .iter()
        .map(|id| {
            let job = &inner.jobs[id];
            JobRow {
                job_id: *id,
                tenant: job.tenant.clone(),
                state: match job.status {
                    JobStatus::Queued => job_state::QUEUED,
                    JobStatus::Running => job_state::RUNNING,
                    JobStatus::Done(_) => job_state::DONE,
                    JobStatus::Failed(_) => job_state::FAILED,
                },
            }
        })
        .collect();
    let mut agg = shared.recorder.hub().snapshot();
    agg.merge(&inner.fleet_metrics);
    let placement = &shared.cfg.elastic.placement;
    let weights = (0..shared.cfg.nodes.len() as u32)
        .map(|i| (i, placement.weight_milli(i)))
        .collect();
    Message::TopReport {
        status,
        jobs,
        metrics: agg.encode_bin(),
        weights,
    }
}

/// The fleet-wide metrics aggregate `/metrics` renders: the server's
/// own hub plus every finished job's merged telemetry.
fn aggregate_metrics(shared: &Shared) -> MetricsSnapshot {
    let mut agg = shared.recorder.hub().snapshot();
    let inner = shared.inner.lock().expect("serve lock");
    agg.merge(&inner.fleet_metrics);
    agg
}

// ---- HTTP telemetry endpoint ----------------------------------------

/// Accept loop of the `/metrics` endpoint. Requests are served inline
/// (no thread per connection): a scrape is one snapshot + render, and
/// scrapers arrive at human cadence. Exits once the server is stopping
/// and drained — `ServerHandle::shutdown` pokes the listener so the
/// blocked `accept` observes that.
fn metrics_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let (mut stream, _peer) = match listener.accept() {
            Ok(s) => s,
            Err(_) => return,
        };
        let (stopping, drained) = {
            let inner = shared.inner.lock().expect("serve lock");
            (inner.stopping, inner.queue.is_empty() && inner.running == 0)
        };
        if stopping && drained {
            return;
        }
        if let Some(path) = http::request_path(&mut stream) {
            route_http(shared, &mut stream, &path, stopping);
        }
    }
}

fn route_http(shared: &Shared, stream: &mut TcpStream, path: &str, stopping: bool) {
    match path {
        "/metrics" => {
            let body = render_prometheus(&aggregate_metrics(shared));
            http::respond(stream, 200, "OK", "text/plain; version=0.0.4", &body);
        }
        "/healthz" => http::respond(stream, 200, "OK", "text/plain", "ok\n"),
        "/readyz" => {
            if stopping {
                http::respond(
                    stream,
                    503,
                    "Service Unavailable",
                    "text/plain",
                    "stopping\n",
                );
            } else {
                http::respond(stream, 200, "OK", "text/plain", "ready\n");
            }
        }
        _ => http::respond(stream, 404, "Not Found", "text/plain", "not found\n"),
    }
}

// ---- workers ---------------------------------------------------------

fn worker_loop(shared: &Shared) {
    loop {
        let (job_id, tenant, spec, waited_ns) = {
            let mut inner = shared.inner.lock().expect("serve lock");
            loop {
                // FIFO, skipping tenants at their running cap so one
                // tenant's burst cannot starve the others.
                let mut pick = None;
                for (pos, id) in inner.queue.iter().enumerate() {
                    let tenant = &inner.jobs[id].tenant;
                    let running = inner.tenant_running.get(tenant).copied().unwrap_or(0);
                    if running < shared.cfg.tenant_max_running.max(1) {
                        pick = Some(pos);
                        break;
                    }
                }
                if let Some(pos) = pick {
                    let id = inner.queue.remove(pos).expect("picked from queue");
                    let job = inner.jobs.get_mut(&id).expect("queued job exists");
                    job.status = JobStatus::Running;
                    let tenant = job.tenant.clone();
                    let spec = job.spec.clone();
                    let waited_ns = job.submitted.elapsed().as_nanos() as u64;
                    inner.running += 1;
                    *inner.tenant_running.entry(tenant.clone()).or_insert(0) += 1;
                    let hub = shared.recorder.hub();
                    hub.gauge("serve.queued", inner.queue.len() as f64);
                    hub.gauge("serve.running", inner.running as f64);
                    break (id, tenant, spec, waited_ns);
                }
                if inner.stopping && inner.queue.is_empty() {
                    return;
                }
                inner = shared.work_cv.wait(inner).expect("serve lock");
            }
        };
        shared
            .recorder
            .hub()
            .observe("serve.queue_wait_ns", waited_ns);

        let run_start = Instant::now();
        let result = run_job(shared, job_id, &spec);
        let run_ns = run_start.elapsed().as_nanos() as u64;

        let mut inner = shared.inner.lock().expect("serve lock");
        match result {
            Ok((out, trace, telemetry)) => {
                if let Some(t) = trace {
                    inner.server_trace.merge_as(job_id as usize, t);
                }
                if let Some(m) = telemetry {
                    inner.fleet_metrics.merge(&m);
                }
                inner.jobs.get_mut(&job_id).expect("job exists").status = JobStatus::Done(out);
                inner.completed += 1;
                shared.recorder.hub().add("serve.jobs_completed", 1);
            }
            Err(message) => {
                inner.jobs.get_mut(&job_id).expect("job exists").status =
                    JobStatus::Failed(message);
                inner.failed += 1;
                shared.recorder.hub().add("serve.jobs_failed", 1);
            }
        }
        inner.running -= 1;
        {
            let hub = shared.recorder.hub();
            hub.observe("serve.job_run_ns", run_ns);
            hub.gauge("serve.queued", inner.queue.len() as f64);
            hub.gauge("serve.running", inner.running as f64);
        }
        if let Some(n) = inner.tenant_running.get_mut(&tenant) {
            *n = n.saturating_sub(1);
        }
        if let Some(n) = inner.tenant_active.get_mut(&tenant) {
            *n = n.saturating_sub(1);
        }
        drop(inner);
        shared.recorder.instant(
            TraceLevel::Phases,
            "serve.job_done",
            "serve",
            0,
            vec![("job", AttrValue::Int(job_id as i64))],
        );
        shared.done_cv.notify_all();
        // Finishing may unblock a queued job of the same tenant.
        shared.work_cv.notify_all();
    }
}

/// Run one admitted job, returning its output, its trace (for the
/// server-trace track), and its telemetry snapshot (for the fleet
/// aggregate). Every failure is rendered to the message the client
/// sees.
fn run_job(
    shared: &Shared,
    job_id: u64,
    spec: &JobSpec,
) -> Result<(JobOutput, Option<Trace>, Option<MetricsSnapshot>), String> {
    match spec {
        JobSpec::Task {
            task,
            params,
            init_state,
            rounds,
            dataset,
            threads_per_node,
            backend,
        } => {
            let mut cfg = ClusterConfig::new(task, dataset);
            cfg.params = params.clone();
            cfg.init_state = init_state.clone();
            cfg.rounds = (*rounds).max(1) as usize;
            cfg.threads_per_node = (*threads_per_node).max(1) as usize;
            cfg.backend = freeride::KernelBackend::from_wire(*backend);
            cfg.trace = shared.cfg.trace;
            cfg.read_timeout = shared.cfg.read_timeout;
            cfg.checkpoint_dir = shared.cfg.checkpoint_root.clone();
            cfg.job_tag = format!("job{job_id}");
            // Steal/placement policy is fleet-wide; the membership hub
            // is not (concurrent jobs can't share one listener).
            cfg.elastic = shared.cfg.elastic.clone();
            cfg.elastic.join_listen = None;
            run_task_job(shared, &cfg)
        }
        JobSpec::Chapel {
            source,
            opt,
            threads,
            globals,
            backend,
        } => run_chapel_job(shared, source, *opt, *threads, globals, *backend),
    }
}

fn run_task_job(
    shared: &Shared,
    cfg: &ClusterConfig,
) -> Result<(JobOutput, Option<Trace>, Option<MetricsSnapshot>), String> {
    // Each job gets its own flight ring: when the job dies, its recent
    // spans are dumped next to the typed error. The hub stays on even
    // with tracing off, so the fleet aggregate covers every job.
    let recorder = Arc::new(Recorder::with_flight(
        cfg.trace,
        Arc::new(FlightRecorder::default()),
    ));
    recorder.hub().set_enabled(true);
    let driver = JobDriver::new(cfg, &recorder);
    let mut tries = 0;
    let outcome = loop {
        let result = if tries == 0 || cfg.checkpoint_dir.is_none() {
            driver.run(&shared.cfg.nodes)
        } else {
            // Retry from the job's own (job-tagged) checkpoint when one
            // exists; from scratch when the failure predated the first
            // checkpoint.
            match driver.resume(&shared.cfg.nodes) {
                Err(DistError::Ft(freeride_ft::FtError::NoCheckpoint { .. })) => {
                    driver.run(&shared.cfg.nodes)
                }
                other => other,
            }
        };
        match result {
            Ok(outcome) => break outcome,
            Err(_) if tries < shared.cfg.job_retries => tries += 1,
            Err(e) => {
                // Final failure: dump the flight ring so the last spans
                // before death sit next to the typed error in the log.
                if let Some(flight) = recorder.flight() {
                    if !flight.is_empty() {
                        eprintln!(
                            "cfr-serve: job `{}` failed: {e}\n{}",
                            cfg.job_tag,
                            flight.dump_text(recorder.now_ns(), u64::MAX)
                        );
                    }
                }
                return Err(e.to_string());
            }
        }
    };
    let trace_bin = outcome
        .trace
        .as_ref()
        .map(|t| t.encode_bin())
        .unwrap_or_default();
    Ok((
        JobOutput {
            state: outcome.state,
            robj: outcome.robj.encode_cells(),
            globals: Vec::new(),
            trace_bin,
        },
        outcome.trace,
        outcome.telemetry,
    ))
}

fn run_chapel_job(
    shared: &Shared,
    source: &str,
    opt: u8,
    threads: u32,
    globals: &[String],
    backend: u8,
) -> Result<(JobOutput, Option<Trace>, Option<MetricsSnapshot>), String> {
    let opt_level = opt_level(opt).ok_or(format!("unknown opt level {opt}"))?;
    let backend = freeride::KernelBackend::from_wire(backend);
    let recorder = Arc::new(Recorder::new(shared.cfg.trace));
    recorder.hub().set_enabled(true);
    let translator = Translator::new(opt_level, threads.max(1) as usize)
        .traced(Arc::clone(&recorder))
        .backend(backend);

    let key = (freeride::fnv1a64(source.as_bytes()), opt, backend.to_wire());
    let cached = {
        let mut inner = shared.inner.lock().expect("serve lock");
        let hit = inner.program_cache.get(&key).cloned();
        if hit.is_some() {
            inner.program_cache_hits += 1;
            shared.recorder.add_counter("serve.program_cache_hits", 1);
            shared.recorder.hub().add("serve.program_cache_hits", 1);
        }
        hit
    };
    let compiled = match cached {
        Some(c) => c,
        None => {
            let c = Arc::new(
                translator
                    .compile_program(source)
                    .map_err(|e| e.to_string())?,
            );
            let mut inner = shared.inner.lock().expect("serve lock");
            shared.recorder.add_counter("serve.program_cache_misses", 1);
            shared.recorder.hub().add("serve.program_cache_misses", 1);
            inner.program_cache_misses += 1;
            inner
                .program_cache
                .entry(key)
                .or_insert_with(|| Arc::clone(&c))
                .clone()
        }
    };

    let run = translator
        .run_compiled(&compiled)
        .map_err(|e| e.to_string())?;
    let mut out_globals = Vec::with_capacity(globals.len());
    for name in globals {
        let value = run
            .global(name)
            .ok_or(format!("global `{name}` not found after the run"))?;
        out_globals.push((name.clone(), flatten_global(name, value)?));
    }
    let trace = (shared.cfg.trace != TraceLevel::Off).then(|| recorder.drain());
    let trace_bin = trace.as_ref().map(|t| t.encode_bin()).unwrap_or_default();
    let telemetry = recorder.hub().snapshot();
    Ok((
        JobOutput {
            state: Vec::new(),
            robj: Vec::new(),
            globals: out_globals,
            trace_bin,
        },
        trace,
        (!telemetry.counters.is_empty() || !telemetry.histograms.is_empty()).then_some(telemetry),
    ))
}

/// Flatten a requested global to its numeric values (scalars widen,
/// arrays flatten element-wise).
fn flatten_global(name: &str, value: &RtValue) -> Result<Vec<f64>, String> {
    match value {
        RtValue::Array { items, .. } => items
            .iter()
            .map(|v| {
                v.as_f64()
                    .map_err(|e| format!("global `{name}` is not numeric: {e}"))
            })
            .collect(),
        scalar => Ok(vec![scalar
            .as_f64()
            .map_err(|e| format!("global `{name}` is not numeric: {e}"))?]),
    }
}
