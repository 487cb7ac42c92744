//! Microbenches of the substrates: Algorithms 1–3 of the linearize
//! crate, the FREERIDE engine's per-element overhead, and the frontend.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use chapel_frontend::programs;
use freeride::{
    CombineOp, DataView, Engine, ExecMode, GroupSpec, JobConfig, RObjHandle, RObjLayout, Split,
    Splitter,
};
use linearize::{compute_index, AccessPath, FlatAccessor, Linearizer, Shape, StridedCursor, Value};

fn fig6_shape(t: usize, n: usize, m: usize) -> Shape {
    let a = Shape::record(vec![
        ("a1", Shape::array(Shape::Real, m)),
        ("a2", Shape::Int),
    ]);
    let b = Shape::record(vec![("b1", Shape::array(a, n)), ("b2", Shape::Int)]);
    Shape::array(b, t)
}

/// Algorithm 2 over the Figure 6 structure at several sizes.
fn linearize_alg2(c: &mut Criterion) {
    let mut group = c.benchmark_group("linearize_alg2");
    group.sample_size(20);
    for t in [64usize, 512, 4096] {
        let shape = fig6_shape(t, 8, 16);
        let value = Value::from_fn(&shape, |i| i as f64);
        let lin = Linearizer::new(&shape);
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, _| {
            b.iter(|| lin.linearize(&value).expect("linearize"));
        });
    }
    group.finish();
}

/// Algorithm 3: per-access mapping vs the strength-reduced cursor —
/// opt-1's gain in isolation.
fn mapping_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("linearize_alg3");
    let (t, n, m) = (128usize, 16usize, 32usize);
    let shape = fig6_shape(t, n, m);
    let value = Value::from_fn(&shape, |i| (i % 97) as f64);
    let lin = Linearizer::new(&shape)
        .linearize(&value)
        .expect("linearize");
    let pm = lin
        .meta
        .for_path(&AccessPath::fields(&[0, 0]))
        .expect("path");

    group.bench_function("computeIndex-per-access", |b| {
        let acc = FlatAccessor::new(&lin.buffer, &pm);
        b.iter(|| {
            let mut sum = 0.0;
            for i in 0..t {
                for j in 0..n {
                    for k in 0..m {
                        sum += acc.get(&[i, j, k]);
                    }
                }
            }
            sum
        });
    });
    group.bench_function("strength-reduced", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for i in 0..t {
                for j in 0..n {
                    let cur = StridedCursor::at(&lin.buffer, &pm, &[i, j]);
                    for k in 0..m {
                        sum += cur.get(k);
                    }
                }
            }
            sum
        });
    });
    group.bench_function("recursive-call", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for i in 0..t {
                for j in 0..n {
                    for k in 0..m {
                        sum += lin.buffer[compute_index(&pm, &[i, j, k])];
                    }
                }
            }
            sum
        });
    });
    group.finish();
}

/// FREERIDE engine: per-row overhead of the fused reduction across
/// sync schemes at one thread.
fn engine_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("freeride_engine");
    group.sample_size(20);
    let data: Vec<f64> = (0..100_000).map(|i| (i % 1000) as f64).collect();
    let layout = RObjLayout::new(vec![GroupSpec::new("sum", 16, CombineOp::Sum)]);
    let kernel = |split: &Split<'_>, robj: &mut dyn RObjHandle| {
        for row in split.iter_rows() {
            robj.accumulate(0, row[0] as usize % 16, row[0]);
        }
    };
    for (name, scheme) in [
        ("replication", freeride::SyncScheme::FullReplication),
        ("atomic", freeride::SyncScheme::Atomic),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &scheme, |b, &scheme| {
            let engine = Engine::new(JobConfig {
                threads: 1,
                scheme,
                ..Default::default()
            });
            b.iter(|| {
                let view = DataView::new(&data, 1).expect("unit 1");
                engine.run(view, &layout, &kernel)
            });
        });
    }
    group.finish();
}

/// Recorder overhead: one pass per [`TraceLevel`] on the instrumented
/// sequential exec mode — the same recorder code path the threaded
/// modes take (per-split stats, post-pass span synthesis) without
/// thread-scheduling noise drowning the signal. DESIGN.md budgets
/// `Phases` at <2% over `Off`; the measured numbers live in
/// EXPERIMENTS.md. The per-iteration `drain_trace` keeps the recorder's
/// shards from growing across Criterion iterations and charges the
/// traced levels their full record-and-drain cost.
fn trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(40);
    let data: Vec<f64> = (0..100_000).map(|i| (i % 1000) as f64).collect();
    let layout = RObjLayout::new(vec![GroupSpec::new("sum", 16, CombineOp::Sum)]);
    let kernel = |split: &Split<'_>, robj: &mut dyn RObjHandle| {
        for row in split.iter_rows() {
            robj.accumulate(0, row[0] as usize % 16, row[0]);
        }
    };
    for (name, level) in [
        ("off", freeride::TraceLevel::Off),
        ("phases", freeride::TraceLevel::Phases),
        ("splits", freeride::TraceLevel::Splits),
    ] {
        let engine = Engine::new(JobConfig {
            threads: 2,
            trace: level,
            exec: ExecMode::Sequential,
            splitter: Splitter::Chunked {
                rows_per_chunk: 1024,
            },
            ..Default::default()
        });
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let view = DataView::new(&data, 1).expect("unit 1");
                let outcome = engine.run(view, &layout, &kernel);
                let trace = engine.drain_trace();
                (outcome, trace)
            });
        });
    }
    group.finish();
}

/// Frontend: parse + typecheck the k-means program.
fn frontend(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontend");
    let src = programs::kmeans(1000, 100, 8);
    group.bench_function("parse", |b| {
        b.iter(|| chapel_frontend::parse(&src).expect("parse"));
    });
    let program = chapel_frontend::parse(&src).expect("parse");
    group.bench_function("analyze", |b| {
        b.iter(|| chapel_sema::analyze(&program).expect("sema"));
    });
    group.finish();
}

criterion_group!(
    benches,
    linearize_alg2,
    mapping_strategies,
    engine_overhead,
    trace_overhead,
    frontend
);
criterion_main!(benches);
