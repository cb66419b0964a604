//! Criterion bench: DN-Analyzer end-to-end throughput and phase costs on
//! synthetic traces of growing size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcc_bench::synth::{synth_trace, SynthParams};
use mcc_core::{matching, preprocess, AnalysisSession};

fn bench_full_check(c: &mut Criterion) {
    let mut g = c.benchmark_group("analyzer/full_check");
    for rounds in [2usize, 8, 32] {
        let t = synth_trace(&SynthParams { rounds, ..Default::default() }, 0.1);
        g.throughput(Throughput::Elements(t.total_events() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(t.total_events()), &t, |b, t| {
            let session = AnalysisSession::new();
            b.iter(|| session.run(t));
        });
    }
    g.finish();
}

fn bench_phases(c: &mut Criterion) {
    let t = synth_trace(&SynthParams { rounds: 16, ..Default::default() }, 0.1);
    let ctx = preprocess::preprocess(&t);
    let mut g = c.benchmark_group("analyzer/phases");
    g.bench_function("preprocess", |b| b.iter(|| preprocess::preprocess(&t)));
    g.bench_function("matching", |b| b.iter(|| matching::match_sync(&t, &ctx)));
    let m = matching::match_sync(&t, &ctx);
    g.bench_function("dag+clocks", |b| {
        b.iter(|| {
            let dag = mcc_core::dag::build(&t, &ctx, &m);
            mcc_core::vc::Clocks::compute(&dag)
        })
    });
    g.finish();
}

fn bench_streaming_vs_batch(c: &mut Criterion) {
    // The §VII-B future-work item: online analysis with bounded memory.
    use mcc_core::streaming::StreamingChecker;
    let t = synth_trace(&SynthParams { rounds: 16, ..Default::default() }, 0.05);
    let mut g = c.benchmark_group("analyzer/streaming");
    g.sample_size(10);
    g.bench_function("batch", |b| {
        let session = AnalysisSession::new();
        b.iter(|| session.run(&t));
    });
    g.bench_function("streaming", |b| b.iter(|| StreamingChecker::run_over(&t).unwrap()));
    g.finish();
}

criterion_group!(benches, bench_full_check, bench_phases, bench_streaming_vs_batch);
criterion_main!(benches);
