//! One totality harness for every binary decoder in the workspace
//! (DESIGN.md "Binary formats"): FRRO, FRCK, FRDM, FRSV, FRTR, FRMT,
//! FRSP and FRDS.
//!
//! Each decoder is fed one valid sample and its damaged variants: every
//! prefix, every single-byte XOR, and every offset overwritten with
//! four `0xFF` bytes (which inflates whatever length or count field sits
//! there). Every input must come back as `Ok` or as the format's typed
//! error, never a panic, and a thread-local counting allocator must see
//! the decode allocate no more than a constant plus a multiple of the
//! input length. Run it in release too (`ci.sh` does): there integer
//! overflow wraps silently instead of panicking.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cfr_serve::proto::{self as serve_proto, JobRow, JobSpec, ServerStatus, TenantStatus};
use cfr_sparse::{CooTensor, CsrMatrix, SparseData};
use freeride::source::{write_dataset, FileDataset};
use freeride::{CombineOp, GroupSpec, RObjLayout, ReductionObject};
use freeride_dist::proto::{self as dist_proto, Message as DistMessage};
use freeride_dist::Checkpoint;
use obs::{AttrValue, MetricsHub, MetricsSnapshot, Recorder, Trace, TraceLevel};

struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ALLOCATED.try_with(|a| a.set(a.get().saturating_add(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting beside it only
// touches a const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f`, returning its value and the bytes this thread allocated
/// meanwhile (reallocations count their full new size).
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// The allowance: a constant (a frame reader's capped initial buffer,
/// one 4 KiB metrics histogram, map nodes) plus a multiple of the input.
const ALLOC_SLACK: usize = 256 << 10;
const ALLOC_PER_INPUT_BYTE: usize = 64;

/// Every damaged variant of `sample` the harness feeds a decoder.
fn variants(sample: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for n in 0..sample.len() {
        out.push((format!("prefix {n}"), sample[..n].to_vec()));
    }
    for i in 0..sample.len() {
        for mask in 1..=255u8 {
            let mut v = sample.to_vec();
            v[i] ^= mask;
            out.push((format!("byte {i} ^ {mask:#04x}"), v));
        }
    }
    for i in 0..sample.len() {
        let mut v = sample.to_vec();
        for b in v.iter_mut().skip(i).take(4) {
            *b = 0xFF;
        }
        out.push((format!("0xFF x4 at {i}"), v));
    }
    out
}

/// Feed `decode` the sample and every variant: no panic, bounded
/// allocation. `decode` reports whether the input decoded.
fn check_total(format: &str, sample: &[u8], decode: impl Fn(&[u8]) -> bool) {
    let mut inputs = vec![("sample".to_string(), sample.to_vec())];
    inputs.extend(variants(sample));
    for (case, input) in &inputs {
        let (outcome, bytes) = allocated_by(|| catch_unwind(AssertUnwindSafe(|| decode(input))));
        match outcome {
            Err(_) => panic!("{format}: decoding {case} panicked"),
            Ok(ok) if case == "sample" => assert!(ok, "{format}: the valid sample failed"),
            Ok(_) => {}
        }
        let allowed = ALLOC_SLACK + ALLOC_PER_INPUT_BYTE * input.len();
        assert!(
            bytes <= allowed,
            "{format}: decoding {case} ({} bytes) allocated {bytes} bytes (allowed {allowed})",
            input.len()
        );
    }
}

fn robj_sample() -> ReductionObject {
    let layout = RObjLayout::new(vec![
        GroupSpec::new("sums", 3, CombineOp::Sum),
        GroupSpec::new("mins", 2, CombineOp::Min),
    ]);
    let mut robj = ReductionObject::alloc(layout);
    robj.accumulate(0, 1, 2.5);
    robj.accumulate(1, 0, -4.0);
    robj
}

#[test]
fn frro_decoders_are_total() {
    let robj = robj_sample();
    let layout = robj.layout().clone();
    check_total("FRRO layout", &layout.encode().unwrap(), |b| {
        RObjLayout::decode(b).is_ok()
    });
    check_total("FRRO cells", &robj.encode_cells(), |b| {
        ReductionObject::decode_cells(&layout, b).is_ok()
    });
    check_total("FRRO snapshot", &robj.encode_snapshot().unwrap(), |b| {
        ReductionObject::decode_snapshot(b).is_ok()
    });
}

#[test]
fn frck_decoder_is_total() {
    let ckpt = Checkpoint {
        task: "kmeans".into(),
        job: "job-1".into(),
        params: vec![2, 3],
        round: 4,
        rounds_total: 9,
        state: vec![0.5, -1.0, 2.0],
        shards: vec![(0, 100), (100, 50)],
        robj: robj_sample(),
    };
    let frame = ckpt.encode().unwrap();
    check_total("FRCK", &frame, |b| Checkpoint::decode(b).is_ok());
    // The trailing checksum stops nearly every variant above before the
    // body parser runs; re-sealing each variant drives the parser too.
    check_total("FRCK resealed", &frame, |b| {
        let mut b = b.to_vec();
        if b.len() >= 8 {
            let body = b.len() - 8;
            let sum = obs::codec::fnv1a64(&b[..body]);
            b[body..].copy_from_slice(&sum.to_le_bytes());
        }
        Checkpoint::decode(&b).is_ok()
    });
}

#[test]
fn frdm_decoder_is_total() {
    let samples = [
        DistMessage::Hello {
            node_id: 2,
            job: dist_proto::JobSetup {
                task: "kmeans".into(),
                params: vec![4, 2],
                layout: robj_sample().layout().encode().unwrap(),
                dataset: "/data/points.frds".into(),
                threads: 2,
                trace_level: TraceLevel::Phases,
                io: freeride::IoMode::Streaming {
                    chunk_rows: 4096,
                    buffers: 3,
                    readers: 2,
                },
                backend: freeride::KernelBackend::Compiled,
                scheme: freeride::SyncScheme::Hybrid {
                    region_cells: 128,
                    replicated: 0b1011,
                    stripes: 64,
                },
                sparse_split: true,
            },
        },
        DistMessage::RoundStart {
            round: 4,
            attempt: 1,
            state: vec![0.25, -8.0, 3.5],
        },
        DistMessage::UnitResult {
            round: 4,
            attempt: 1,
            first_row: 1024,
            elapsed_ns: 987_654,
            cells: robj_sample().encode_cells(),
        },
        DistMessage::RoundDone {
            round: 4,
            attempt: 1,
            leave: true,
            metrics: vec![6, 7, 8],
        },
        DistMessage::JobDone {
            trace: vec![4, 5],
            metrics: vec![6, 7, 8],
        },
    ];
    for msg in samples {
        check_total(&format!("FRDM {}", msg.kind_name()), &msg.encode(), |b| {
            dist_proto::read_message(&mut &b[..]).is_ok()
        });
    }
}

#[test]
fn frsv_decoder_is_total() {
    let status = ServerStatus {
        queued: 1,
        running: 2,
        completed: 3,
        failed: 4,
        program_cache_hits: 5,
        program_cache_misses: 6,
        dataset_cache_hits: 7,
        dataset_cache_misses: 8,
        tenants: vec![TenantStatus {
            tenant: "alice".into(),
            active: 2,
            running: 1,
        }],
        queue: vec![12, 13],
    };
    let samples = [
        serve_proto::Message::Submit {
            spec: JobSpec::Task {
                task: "kmeans".into(),
                params: vec![3, 2],
                init_state: vec![0.5, -1.0],
                rounds: 4,
                dataset: "/data/points.frds".into(),
                threads_per_node: 2,
                backend: 1,
            },
        },
        serve_proto::Message::Submit {
            spec: JobSpec::Chapel {
                source: "var total: real = + reduce A;".into(),
                opt: 2,
                threads: 3,
                globals: vec!["total".into(), "n".into()],
                backend: 0,
            },
        },
        serve_proto::Message::JobResult {
            job_id: 12,
            state: vec![1.0, 2.0],
            robj: vec![7, 8],
            globals: vec![("total".into(), vec![42.0])],
            trace: vec![1, 2, 3],
        },
        serve_proto::Message::TopReport {
            status,
            jobs: vec![JobRow {
                job_id: 12,
                tenant: "alice".into(),
                state: cfr_serve::job_state::RUNNING,
            }],
            metrics: vec![b'F', b'R', b'M', b'T', 1],
        },
    ];
    for msg in samples {
        check_total(&format!("FRSV {}", msg.kind_name()), &msg.encode(), |b| {
            serve_proto::read_message(&mut &b[..]).is_ok()
        });
    }
}

#[test]
fn frtr_decoder_is_total() {
    let rec = Recorder::new(TraceLevel::Splits);
    {
        let mut span = rec.span(TraceLevel::Phases, "pass", "engine", 0);
        span.attr_int("splits", 4);
        span.attr_f64("ratio", 0.5);
        span.attr_str("mode", "threads");
    }
    rec.push_complete(
        TraceLevel::Splits,
        "split",
        "engine",
        3,
        100,
        50,
        vec![("rows", AttrValue::Int(123))],
    );
    let frame = rec.drain().encode_bin();
    check_total("FRTR", &frame, |b| Trace::decode_bin(b).is_ok());
}

#[test]
fn frmt_decoder_is_total() {
    let hub = MetricsHub::new(true);
    hub.add("jobs", 3);
    hub.gauge("load", 0.75);
    for v in [10, 2000, 2001, 1 << 30] {
        hub.observe("round_ns", v);
    }
    let frame = hub.snapshot().encode_bin();
    check_total("FRMT", &frame, |b| MetricsSnapshot::decode_bin(b).is_ok());
}

#[test]
fn frsp_decoder_is_total() {
    let csr = CsrMatrix::new(
        3,
        5,
        vec![0, 2, 2, 4],
        vec![0, 4, 1, 3],
        vec![1.0, 2.0, 3.0, 4.0],
    )
    .unwrap();
    let coo = CooTensor::new([4, 3, 2], vec![[0, 0, 0], [3, 2, 1]], vec![1.0, -2.0]).unwrap();
    for (name, data) in [
        ("FRSP csr", SparseData::Csr(csr)),
        ("FRSP coo", SparseData::Coo(coo)),
    ] {
        let bytes = cfr_sparse::encode_frsp(&data).unwrap();
        check_total(name, &bytes, |b| cfr_sparse::decode_frsp(b).is_ok());
    }
}

#[test]
fn frds_open_is_total() {
    let mut path = std::env::temp_dir();
    path.push(format!("cfr-decoders-total-{}.frds", std::process::id()));
    write_dataset(&path, 2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
    let sample = std::fs::read(&path).unwrap();
    check_total("FRDS", &sample, |b| {
        std::fs::write(&path, b).unwrap();
        match FileDataset::open(&path) {
            Ok(ds) => ds.read_rows(0, ds.rows()).is_ok(),
            Err(_) => false,
        }
    });
    std::fs::remove_file(&path).ok();
}

/// A stream frame header declaring the largest payload, then EOF: the
/// reader must fail with the short read's `UnexpectedEof` without first
/// reserving the declared 64 MiB.
#[test]
fn frame_header_alone_does_not_reserve_its_declared_length() {
    let mut dist = DistMessage::EndJob.encode();
    dist[6..10].copy_from_slice(&dist_proto::MAX_FRAME_LEN.to_le_bytes());
    let (err, bytes) = allocated_by(|| dist_proto::read_message(&mut &dist[..]).unwrap_err());
    assert!(
        matches!(&err, freeride_dist::DistError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
        "{err}"
    );
    assert!(bytes < 1 << 20, "FRDM: allocated {bytes} bytes");

    let mut serve = serve_proto::Message::Bye.encode();
    serve[6..10].copy_from_slice(&serve_proto::MAX_FRAME_LEN.to_le_bytes());
    let (err, bytes) = allocated_by(|| serve_proto::read_message(&mut &serve[..]).unwrap_err());
    assert!(
        matches!(&err, cfr_serve::ServeError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
        "{err}"
    );
    assert!(bytes < 1 << 20, "FRSV: allocated {bytes} bytes");
}

/// The harness itself: a decode that reserves what a length field
/// claims is caught.
#[test]
fn the_allocation_bound_catches_a_trusting_decoder() {
    let trusting = |b: &[u8]| {
        let n = b.first().copied().unwrap_or(0) as usize;
        !std::hint::black_box(vec![0u8; n << 20]).is_empty()
    };
    let caught = catch_unwind(|| check_total("trusting", &[1], trusting));
    assert!(caught.is_err());
}
