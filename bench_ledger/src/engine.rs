//! The in-process side: building a workload's monitor, running its operation
//! sequence against it, and the `Naive` oracle every workload is checked
//! against. The embedded workloads measure this loop directly; the trace run
//! of every workload reuses it with a [`Chain`] so each publish also crosses
//! the server layers' public functions.

use crate::inputs::LAMBDA;
use crate::layers::Chain;
use crate::plan::{Plan, Workload, SLICES, TENANT_SHORT_TTL, TENANT_TTL};
use crate::trace::Tracer;
use continuous_topk::{EngineKind, MonitorBuilder};
use ctk_common::{Namespace, QueryId, QuerySpec, ScoredDoc};
use ctk_core::{
    EventStats, EvictionPolicy, MonitorBackend, PublishRequest, QueryOptions, RetentionPolicy,
};
use std::time::Instant;

/// Run `f` in a span and also return how long it took, in microseconds.
fn timed<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    tracer.span(name, |_| {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64() * 1e6)
    })
}

/// A workload's monitor after set-up registration, before any publish.
pub struct Live {
    pub backend: Box<dyn MonitorBackend + Send>,
    /// The current public id of each standing-query slot.
    pub ids: Vec<QueryId>,
    tenant: Namespace,
    /// Microseconds of each set-up registration call.
    pub register_us: Vec<f64>,
}

/// Build the plan's monitor and register its standing (and, for
/// `churn_mixed`, tenant) population.
fn build(plan: &Plan, tracer: &mut Tracer) -> Live {
    let mut backend = plan.builder().build();
    let mut register_us = Vec::with_capacity(plan.queries.len());
    let mut ids = Vec::with_capacity(plan.queries.len());
    for query in &plan.queries {
        let spec = query.spec.clone();
        let (id, us) = timed(tracer, "core.register", || backend.register(spec));
        ids.push(id);
        register_us.push(us);
    }
    let mut tenant = Namespace::DEFAULT;
    if plan.workload == Workload::ChurnMixed {
        tenant = backend.intern_namespace("tenant");
        backend.set_retention(
            tenant,
            RetentionPolicy {
                max_age: Some(TENANT_TTL),
                max_queries: Some(plan.tenant_cap),
                eviction: EvictionPolicy::Oldest,
            },
        );
        for spec in plan.tenant_fill.iter().cloned() {
            backend.register_with(spec, QueryOptions { namespace: tenant, max_age: None });
        }
    }
    Live { backend, ids, tenant, register_us }
}

/// What one measured phase recorded.
#[derive(Default)]
pub struct Phase {
    pub wall_s: f64,
    /// Seconds since phase start at which each of the [`SLICES`] slices ended.
    pub marks: Vec<f64>,
    /// Milliseconds of each publish call, in call order.
    pub publish_ms: Vec<f64>,
    /// `(call, milliseconds)` from publish send until the call's first result
    /// change was in a listener's hands, for the calls that changed any result.
    pub notify_ms: Vec<(usize, f64)>,
    /// Microseconds of each registration call issued inside the phase.
    pub register_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Work counters summed over the measured documents.
    pub stats: EventStats,
}

/// The churn operations of one `churn_mixed` round, owned.
struct Churn {
    short: QuerySpec,
    long: QuerySpec,
    slot: usize,
    again: QuerySpec,
}

/// One call's operations, owned, so nothing is cloned inside the clock.
pub struct Call {
    churn: Option<Churn>,
    publish: PublishRequest,
}

fn calls(plan: &Plan, warm: bool) -> Vec<Call> {
    let (requests, first_round) =
        if warm { (&plan.warm, 0) } else { (&plan.measured, plan.warm.len()) };
    requests
        .iter()
        .enumerate()
        .map(|(i, request)| Call {
            churn: plan.rounds.get(first_round + i).map(|round| {
                let [short, long] = round.tenants.clone();
                let again = plan.queries[round.slot].spec.clone();
                Churn { short, long, slot: round.slot, again }
            }),
            publish: request.publish.clone(),
        })
        .collect()
}

fn run_call(
    call: Call,
    live: &mut Live,
    tracer: &mut Tracer,
    chain: &mut Option<&mut Chain>,
    phase: &mut Phase,
) {
    if let Some(Churn { short, long, slot, again }) = call.churn {
        let tenant = live.tenant;
        let backend = &mut live.backend;
        for (spec, max_age) in [(short, Some(TENANT_SHORT_TTL)), (long, None)] {
            let opts = QueryOptions { namespace: tenant, max_age };
            let (_, us) = timed(tracer, "core.register", || backend.register_with(spec, opts));
            phase.register_us.push(us);
        }
        let old = live.ids[slot];
        let (removed, _) = timed(tracer, "core.unregister", || backend.unregister(old));
        let (id, us) = timed(tracer, "core.register", || backend.register(again));
        phase.register_us.push(us);
        live.ids[slot] = id;
        phase.attempted += 4;
        phase.failed += u64::from(!removed);
    }
    let docs = call.publish.len();
    let start = Instant::now();
    let receipt = match chain {
        Some(chain) => chain.publish(tracer, live.backend.as_mut(), &call.publish),
        None => {
            let backend = &mut live.backend;
            tracer.span("core.publish", |_| backend.publish_request(call.publish))
        }
    };
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if !receipt.is_quiet() {
        phase.notify_ms.push((phase.publish_ms.len(), ms));
    }
    phase.publish_ms.push(ms);
    phase.attempted += 1;
    phase.failed += u64::from(receipt.doc_ids.len() != docs);
    phase.stats.merge(&receipt.merged_stats());
}

/// Set-up: build and populate the monitor, publish the warm-up calls (no
/// spans), and lay out the measured calls so the clock starts on the first
/// operation. With a `chain`, every publish crosses the staged server layers
/// on its way in and out.
pub fn prepare(
    plan: &Plan,
    tracer: &mut Tracer,
    mut chain: Option<&mut Chain>,
) -> Result<(Live, Vec<Call>), String> {
    let mut live = build(plan, tracer);
    let mut warm = Phase::default();
    let mut silent = Tracer::new(false);
    for call in calls(plan, true) {
        run_call(call, &mut live, &mut silent, &mut chain, &mut warm);
    }
    if warm.failed > 0 {
        return Err(format!("{} warm-up operations failed", warm.failed));
    }
    Ok((live, calls(plan, false)))
}

/// The measured phase: the prepared calls, in order, against `live`.
pub fn measure(
    live: &mut Live,
    calls: Vec<Call>,
    tracer: &mut Tracer,
    mut chain: Option<&mut Chain>,
) -> Phase {
    let per_slice = calls.len() / SLICES;
    let mut phase = Phase::default();
    let start = Instant::now();
    for (i, call) in calls.into_iter().enumerate() {
        tracer.begin_request(i as u64 + 1);
        run_call(call, live, tracer, &mut chain, &mut phase);
        if (i + 1).is_multiple_of(per_slice) {
            phase.marks.push(start.elapsed().as_secs_f64());
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// The sampled standing queries' current top-k, read from the monitor.
pub fn sampled_results(plan: &Plan, live: &Live) -> Vec<Vec<ScoredDoc>> {
    plan.oracle_slots()
        .iter()
        .map(|&slot| live.backend.results(live.ids[slot]).unwrap_or_default())
        .collect()
}

/// Final top-k of the plan's sampled standing queries as the exhaustive
/// `Naive` engine computes them. Only the sampled queries are registered —
/// a query's results depend on the document stream and its own registration
/// point, never on other queries — and `order` is the order in which the
/// monitor under test processed the measured calls.
pub fn oracle_results(plan: &Plan, order: &[usize]) -> Vec<Vec<ScoredDoc>> {
    let slots = plan.oracle_slots();
    let mut oracle = MonitorBuilder::new(EngineKind::Naive).lambda(LAMBDA).build();
    let mut ids: Vec<QueryId> =
        slots.iter().map(|&slot| oracle.register(plan.queries[slot].spec.clone())).collect();
    let warm = plan.warm.iter().enumerate();
    let measured = order.iter().map(|&i| (plan.warm.len() + i, &plan.measured[i]));
    for (round, request) in warm.chain(measured) {
        if let Some(round) = plan.rounds.get(round) {
            if let Ok(sampled) = slots.binary_search(&round.slot) {
                oracle.unregister(ids[sampled]);
                ids[sampled] = oracle.register(plan.queries[round.slot].spec.clone());
            }
        }
        oracle.publish_request(request.publish.clone());
    }
    ids.iter().map(|&id| oracle.results(id).expect("sampled queries stay registered")).collect()
}

/// How many of the sampled queries' observed top-k differ from the oracle's.
pub fn oracle_mismatches(expected: &[Vec<ScoredDoc>], observed: &[Vec<ScoredDoc>]) -> u64 {
    assert_eq!(expected.len(), observed.len());
    expected.iter().zip(observed).filter(|(want, got)| want != got).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Scale;

    #[test]
    fn embedded_workloads_agree_with_the_oracle_and_repeat_their_counts() {
        let scale = Scale { seconds: 0.1, shrink: 50, setups: 1 };
        for workload in [Workload::EmbeddedLarge, Workload::ChurnMixed] {
            let run = || {
                let plan = Plan::generate(workload, 11, scale);
                let mut tracer = Tracer::new(false);
                let (mut live, calls) = prepare(&plan, &mut tracer, None).unwrap();
                let phase = measure(&mut live, calls, &mut tracer, None);
                let observed = sampled_results(&plan, &live);
                let order: Vec<usize> = (0..plan.measured.len()).collect();
                assert_eq!(oracle_mismatches(&oracle_results(&plan, &order), &observed), 0);
                assert!(observed.iter().any(|r| !r.is_empty()));
                assert_eq!(phase.marks.len(), SLICES);
                assert_eq!(phase.failed, 0);
                phase.stats
            };
            assert_eq!(run(), run(), "{}", workload.name());
        }
    }
}
