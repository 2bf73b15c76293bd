//! The `fed_quorum` workload: masked, quorum KR-FkM with seeded client
//! drops, over the in-process transport.
//!
//! The traced job replaces `transport::local::LocalConn` with
//! [`TracedConn`], the same synchronous in-memory connection built from
//! the public `client::ShardClient` and `wire` functions with a span
//! around each encode, decode and client step, and wraps it with
//! `faults::wrap` exactly like the untraced run. Both runs must produce
//! the same model, bit for bit.

use crate::trace::{self, Tracer};
use crate::{close, median, percentile, JobRecord, LayerRecord, Metric, Size, Tally, Workers};
use kr_core::aggregator::Aggregator;
use kr_core::{CoreError, Result};
use kr_federated::client::{ShardClient, Step};
use kr_federated::protocol::{Broadcast, Msg, Summary};
use kr_federated::transport::{local, Connection};
use kr_federated::wire::{self, FrameInfo};
use kr_federated::{
    faults, global_inertia_with, shard_by_assignment, Algo, Client, FaultPlan, FederatedModel,
    FederatedServer, Resilience,
};
use kr_linalg::{ExecCtx, Matrix};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The workload's inputs and settings.
pub struct FedBench {
    data: Matrix,
    clients: Vec<Client>,
    server: FederatedServer,
    plan: Arc<FaultPlan>,
    workers: Workers,
    /// The latest untraced model, which the next traced job must match.
    last: Option<FederatedModel>,
}

impl FedBench {
    /// `femnist_like` with 1000 rows over 20 clients (data seed `seed`),
    /// KR-FkM with (10, 10) sum sets for 15 rounds (server seed
    /// `seed + 1`), quorum 10, pairwise masking (mask seed `seed + 2`),
    /// and 20% seeded reply drops per round (plan seed `seed + 3`), on 2
    /// workers.
    pub fn new(seed: u64, size: Size) -> Self {
        let (n, n_clients, h, rounds, quorum) = match size {
            Size::Full => (1000, 20, 10, 15, 10),
            Size::Tiny => (200, 6, 3, 3, 3),
        };
        let (ds, client_of) = kr_datasets::image::femnist_like(n, n_clients, seed);
        let clients = shard_by_assignment(&ds.data, &client_of, n_clients);
        let server = FederatedServer::new(
            Algo::KrFkm {
                hs: vec![h, h],
                aggregator: Aggregator::Sum,
            },
            rounds,
            seed + 1,
        )
        .with_resilience(Resilience {
            quorum: Some(quorum),
            round_deadline: None,
            mask_seed: Some(seed + 2),
        });
        let plan = FaultPlan::seeded_drops(seed + 3, n_clients, rounds, 0.2);
        FedBench {
            data: ds.data,
            clients,
            server,
            plan: Arc::new(plan),
            workers: Workers::new(2),
            last: None,
        }
    }

    /// Checks a finished run; returns the objective.
    fn check(&self, result: Result<FederatedModel>, tally: &mut Tally) -> f64 {
        let rounds = self.server.rounds;
        let model = match result {
            Ok(m) => m,
            Err(e) => {
                for _ in 0..rounds {
                    tally.unit(Some(format!("run failed: {e}")));
                }
                return f64::NAN;
            }
        };
        for _ in 0..rounds {
            tally.unit(None);
        }
        let faults: usize = model.history.iter().map(|r| r.failures.len()).sum();
        let last = model.history.last().map_or(f64::NAN, |r| r.inertia);
        let exec = self.workers.exec();
        let rescored = global_inertia_with(&self.clients, &model.centroids, &exec);
        let problem = if model.history.len() != rounds {
            Some(format!(
                "{} rounds of history, want {rounds}",
                model.history.len()
            ))
        } else if faults != self.plan.len() {
            Some(format!(
                "{faults} client faults, the plan injects {}",
                self.plan.len()
            ))
        } else if !close(last, rescored) {
            Some(format!(
                "last round inertia {last} but the centroids score {rescored}"
            ))
        } else {
            None
        };
        tally.unit(problem);
        let (n, m) = self.data.shape();
        last / (n * m) as f64
    }
}

impl crate::Bench for FedBench {
    fn job(&mut self, tally: &mut Tally) -> JobRecord {
        kr_bench::alloc_counter::reset_peak();
        let t0 = Instant::now();
        let exec = self.workers.exec();
        let clock = Arc::new(RoundClock::new(self.server.rounds));
        let conns = faults::wrap(&self.plan, local::connect_shards(&self.clients, &exec))
            .into_iter()
            .map(|inner| Clocked {
                inner,
                clock: Arc::clone(&clock),
            })
            .collect();
        let result = self.server.drive(conns, &exec);
        let wall_s = t0.elapsed().as_secs_f64();
        let peak_bytes = kr_bench::alloc_counter::peak_since_reset();
        let steps_ms = clock.round_ms();
        self.last = result.as_ref().ok().cloned();
        let objective = self.check(result, tally);
        JobRecord {
            wall_s,
            peak_bytes,
            steps_ms,
            objective,
        }
    }

    fn traced_job(&mut self, tracer: &Tracer, tally: &mut Tally) -> LayerRecord {
        let exec = self.workers.exec();
        let result = tracer.span("job", || {
            let conns = self
                .clients
                .iter()
                .enumerate()
                .map(|(i, c)| TracedConn::connect(i as u32, &c.data, exec.clone(), tracer))
                .collect();
            let conns = faults::wrap(&self.plan, conns);
            tracer.span("fed.server", || self.server.drive(conns, &exec))
        });
        let spans = tracer.job_spans(tracer.job());
        let wall_s = trace::total(&spans, "job");
        // The server's own work is the part of `drive` no connection
        // step covers (connection steps run on every worker thread).
        let drive_start = spans
            .iter()
            .find(|s| s.name == "fed.server")
            .map_or(0, |s| s.start_ns);
        let conn = |s: &trace::Span| {
            s.start_ns >= drive_start && (s.name.starts_with("wire.") || s.name == "fed.client")
        };
        let server_s = trace::total(&spans, "fed.server") - trace::union_secs(&spans, conn);
        let covered = trace::union_secs(&spans, |s| s.name != "job");
        let share = |name| trace::total(&spans, name) / wall_s;
        let mut values = vec![
            ("wire.encode_share", share("wire.encode")),
            ("wire.decode_share", share("wire.decode")),
            ("fed.client_share", share("fed.client")),
            ("fed.server_share", server_s / wall_s),
            ("trace.coverage", covered / wall_s),
        ];
        if let Ok(model) = &result {
            let w = model.wire;
            let faults: usize = model.history.iter().map(|r| r.failures.len()).sum();
            values.extend([
                (
                    "wire.frames",
                    (w.frames_down + w.frames_up + w.frames_stale) as f64,
                ),
                (
                    "wire.frame_bytes",
                    (w.frame_bytes_down + w.frame_bytes_up) as f64,
                ),
                ("fed.frames_stale", w.frames_stale as f64),
                ("fed.client_faults", faults as f64),
                ("pool.efficiency", self.pool_efficiency(model)),
            ]);
            tally.unit(self.last.as_ref().and_then(|u| same_model(u, model)));
        }
        self.check(result, tally);
        LayerRecord {
            wall_s,
            values: values.into_iter().collect(),
        }
    }

    fn details(&self, jobs: &[JobRecord]) -> Vec<Metric> {
        let rounds: Vec<f64> = jobs
            .iter()
            .flat_map(|j| j.steps_ms.iter().copied())
            .collect();
        let mib_per_round = self.last.as_ref().map_or(f64::NAN, |m| {
            (m.wire.frame_bytes_down + m.wire.frame_bytes_up) as f64
                / (1u64 << 20) as f64
                / self.server.rounds as f64
        });
        vec![
            Metric {
                name: "round_ms_p50",
                unit: "ms",
                value: median(&rounds),
                samples: rounds.len(),
            },
            Metric {
                name: "round_ms_p90",
                unit: "ms",
                value: percentile(&rounds, 0.9),
                samples: rounds.len(),
            },
            Metric {
                name: "wire_mib_per_round",
                unit: "MiB",
                value: mib_per_round,
                samples: jobs.len(),
            },
        ]
    }
}

impl FedBench {
    /// One-worker over two-worker time (per worker) of every client
    /// answering a broadcast of the final model: the clients' assignment
    /// passes, re-run outside the job.
    fn pool_efficiency(&self, model: &FederatedModel) -> f64 {
        let serial = ExecCtx::serial();
        let msg = Msg::Broadcast(Broadcast {
            round: 0,
            eval_only: true,
            mask: None,
            summary: Summary::Centroids(model.centroids.clone()),
        });
        let time = |exec: &ExecCtx| {
            let t0 = Instant::now();
            for (i, c) in self.clients.iter().enumerate() {
                let mut client = ShardClient::new(i as u32, &c.data, exec.clone());
                std::hint::black_box(client.handle(&msg).ok());
            }
            t0.elapsed().as_secs_f64()
        };
        let t2 = time(&self.workers.exec());
        let t1 = time(&serial);
        t1 / (self.workers.threads() as f64 * t2)
    }
}

/// `None` when the traced run's model equals the untraced one bit for
/// bit: centroids, per-round history and wire totals.
fn same_model(a: &FederatedModel, b: &FederatedModel) -> Option<String> {
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    if bits(&a.centroids) != bits(&b.centroids) {
        return Some("traced run's centroids differ from the local transport's".into());
    }
    if a.wire != b.wire {
        return Some(format!("wire totals differ: {:?} vs {:?}", a.wire, b.wire));
    }
    let same_history = a.history.len() == b.history.len()
        && a.history.iter().zip(&b.history).all(|(x, y)| {
            x.round == y.round
                && x.downlink_bytes == y.downlink_bytes
                && x.uplink_bytes == y.uplink_bytes
                && x.inertia.to_bits() == y.inertia.to_bits()
                && x.reporters == y.reporters
                && x.failures == y.failures
        });
    (!same_history).then(|| "traced run's round history differs from the local transport's".into())
}

/// The round a server message opens, if it carries a broadcast.
fn broadcast_round(msg: &Msg) -> Option<u32> {
    match msg {
        Msg::Broadcast(b) => Some(b.round),
        Msg::RoundAck(a) => a.next.as_ref().map(|b| b.round),
        _ => None,
    }
}

/// First time any connection saw each round's broadcast; round `r`
/// lasts until round `r + 1`'s (the evaluation exchange follows the
/// last round).
struct RoundClock {
    epoch: Instant,
    opened: Mutex<Vec<Option<Duration>>>,
}

impl RoundClock {
    fn new(rounds: usize) -> Self {
        RoundClock {
            epoch: Instant::now(),
            opened: Mutex::new(vec![None; rounds + 1]),
        }
    }

    fn mark(&self, round: u32) {
        let at = self.epoch.elapsed();
        let mut opened = self.opened.lock().expect("round clock poisoned");
        if let Some(slot) = opened.get_mut(round as usize) {
            if slot.is_none_or(|t| at < t) {
                *slot = Some(at);
            }
        }
    }

    fn round_ms(&self) -> Vec<f64> {
        let opened = self.opened.lock().expect("round clock poisoned");
        opened
            .windows(2)
            .filter_map(|w| Some((w[1]? - w[0]?).as_secs_f64() * 1e3))
            .collect()
    }
}

/// Stamps round starts on the way through to the wrapped connection.
struct Clocked<C> {
    inner: C,
    clock: Arc<RoundClock>,
}

impl<C: Connection> Connection for Clocked<C> {
    fn send(&mut self, msg: &Msg) -> Result<FrameInfo> {
        if let Some(r) = broadcast_round(msg) {
            self.clock.mark(r);
        }
        self.inner.send(msg)
    }

    fn recv(&mut self) -> Result<Option<(Msg, FrameInfo)>> {
        self.inner.recv()
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<()> {
        self.inner.set_deadline(deadline)
    }
}

/// A synchronous in-memory connection to an in-process
/// [`ShardClient`], with a span around every encode, decode and client
/// step. Every send is encoded to a frame, decoded back, handled, and
/// the reply queued as an encoded frame for the next `recv`.
pub struct TracedConn<'a> {
    client: ShardClient<'a>,
    inbox: VecDeque<Vec<u8>>,
    tracer: &'a Tracer,
}

impl<'a> TracedConn<'a> {
    /// Connects client `id` over `data`; its registration frame is
    /// queued at once.
    pub fn connect(id: u32, data: &'a Matrix, exec: ExecCtx, tracer: &'a Tracer) -> Self {
        let client = ShardClient::new(id, data, exec);
        let (frame, _) = tracer.span("wire.encode", || wire::encode(&client.join()));
        TracedConn {
            client,
            inbox: VecDeque::from([frame]),
            tracer,
        }
    }
}

impl Connection for TracedConn<'_> {
    fn send(&mut self, msg: &Msg) -> Result<FrameInfo> {
        let tr = self.tracer;
        let (frame, info) = tr.span("wire.encode", || wire::encode(msg));
        let delivered = tr
            .span("wire.decode", || wire::decode_frame(&frame))
            .map_err(CoreError::from)?;
        let client = &mut self.client;
        if let Step::Reply(reply) = tr.span("fed.client", || client.handle(&delivered))? {
            let (frame, _) = tr.span("wire.encode", || wire::encode(&reply));
            self.inbox.push_back(frame);
        }
        Ok(info)
    }

    fn recv(&mut self) -> Result<Option<(Msg, FrameInfo)>> {
        let Some(frame) = self.inbox.pop_front() else {
            return Ok(None);
        };
        let msg = self
            .tracer
            .span("wire.decode", || wire::decode_frame(&frame))
            .map_err(CoreError::from)?;
        let info = FrameInfo {
            frame_bytes: frame.len(),
            stat_bytes: wire::stat_bytes(&msg),
        };
        Ok(Some((msg, info)))
    }
}
