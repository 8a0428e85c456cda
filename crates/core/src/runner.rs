//! The shared simulation drive loop.
//!
//! The two builders — [`Experiment`](crate::Experiment) (one view, any
//! single-view policy) and
//! [`MultiViewExperiment`](crate::MultiViewExperiment) (flat or sharded
//! scheduler, serving or not) — differ only in *who* sits at the
//! warehouse node; the network profile, the optional
//! reliability-transport endpoints, the event-capped dispatch loop, and
//! the drain accounting are identical. This module owns that machinery
//! once: harnesses describe their network as a [`NetProfile`], build a
//! [`SimHarness`], inject their workload, and hand [`SimHarness::drive`]
//! a closure that routes one *application* delivery to the right node.

use crate::experiment::CoreError;
use dw_protocol::{Endpoint, Message, TransportConfig, TransportNet};
use dw_simnet::{Delivery, FaultPlan, LatencyModel, NetHandle, Network, NodeId};
use std::collections::{HashMap, HashSet};

/// Everything that shapes the simulated network, independent of which
/// warehouse policy runs on it.
pub(crate) struct NetProfile {
    pub latency: LatencyModel,
    pub link_overrides: Vec<(NodeId, NodeId, LatencyModel)>,
    pub seed: u64,
    pub faults: FaultPlan,
    pub transport: Option<TransportConfig>,
    pub event_cap: u64,
    pub trace: bool,
    pub obs: dw_obs::Obs,
}

/// A configured network plus (optionally) one reliability-transport
/// endpoint per node, ready to drive to quiescence.
pub(crate) struct SimHarness {
    pub net: Network<Message>,
    endpoints: Option<HashMap<NodeId, Endpoint>>,
    /// Nodes with scheduled *state* crashes: their `Restart` must reach
    /// the application layer (for durable-store recovery) even when a
    /// transport endpoint consumes the raw delivery first.
    state_crash_nodes: HashSet<NodeId>,
    event_cap: u64,
    /// Deliveries processed so far.
    pub events: u64,
}

impl SimHarness {
    /// Build the network and endpoints for `node_count` nodes
    /// (warehouse + sources).
    pub fn new(profile: &NetProfile, node_count: usize) -> SimHarness {
        let mut net: Network<Message> = Network::new(profile.seed);
        net.set_observer(profile.obs.clone());
        net.set_default_latency(profile.latency.clone());
        for (from, to, l) in &profile.link_overrides {
            net.set_link_latency(*from, *to, l.clone());
        }
        net.set_faults(profile.faults.clone());
        if profile.trace {
            net.trace_mut().enable(0);
        }

        // One transport endpoint per node, each with its own jitter
        // stream derived from the run seed.
        let endpoints: Option<HashMap<NodeId, Endpoint>> = profile.transport.map(|cfg| {
            (0..node_count)
                .map(|node| {
                    let mut ep =
                        Endpoint::new(node, cfg, profile.seed ^ (node as u64).wrapping_mul(0x9E37));
                    ep.set_observer(profile.obs.clone());
                    (node, ep)
                })
                .collect()
        });
        if endpoints.is_some() {
            // A restarting node must be told it restarted: the transport
            // re-arms its timers and resyncs with every peer.
            for c in profile.faults.crashes() {
                net.inject(c.up_at, c.node, Message::Restart);
            }
        }
        // State-crash restarts are injected with or without a transport:
        // the *application* needs the signal to replay its durable store,
        // not just the endpoint. ENV injections survive the crash window
        // machinery, and `up_at` itself is already outside the window.
        let state_crash_nodes: HashSet<NodeId> = profile
            .faults
            .state_crashes()
            .iter()
            .map(|c| c.node)
            .collect();
        for c in profile.faults.state_crashes() {
            net.inject(c.up_at, c.node, Message::Restart);
        }

        SimHarness {
            net,
            endpoints,
            state_crash_nodes,
            event_cap: profile.event_cap,
            events: 0,
        }
    }

    /// Pump the network until quiescence. With the transport enabled,
    /// each raw delivery first passes through the destination's endpoint
    /// — which consumes transport frames/acks/timers and emits
    /// application messages exactly-once, in-order — and the node's own
    /// sends are wrapped so they go back out through the same endpoint.
    pub fn drive(
        &mut self,
        mut dispatch: impl FnMut(
            Delivery<Message>,
            &mut dyn NetHandle<Message>,
        ) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        while let Some(d) = self.net.next() {
            self.events += 1;
            if self.events > self.event_cap {
                return Err(CoreError::EventCapExceeded {
                    cap: self.event_cap,
                });
            }
            match self.endpoints.as_mut() {
                Some(eps) => {
                    let to = d.to;
                    // The endpoint consumes a `Restart` outright (it
                    // resyncs the transport and emits nothing); a
                    // state-crash node's application must hear it too,
                    // so re-synthesize the delivery past the endpoint.
                    let restart = (matches!(d.msg, Message::Restart)
                        && self.state_crash_nodes.contains(&to))
                    .then_some(Delivery {
                        at: d.at,
                        from: d.from,
                        to: d.to,
                        msg: Message::Restart,
                    });
                    let app_deliveries = eps
                        .get_mut(&to)
                        .ok_or(CoreError::NoSuchNode { node: to })?
                        .on_delivery(d, &mut self.net);
                    for appd in app_deliveries.into_iter().chain(restart) {
                        let ep = eps.get_mut(&to).expect("endpoint exists");
                        let mut tnet = TransportNet::new(ep, &mut self.net);
                        dispatch(appd, &mut tnet)?;
                    }
                }
                None => dispatch(d, &mut self.net)?,
            }
        }
        Ok(())
    }

    /// True when every transport endpoint has drained (trivially true
    /// without a transport): no unacked frames, no reorder buffers, no
    /// pending resync.
    pub fn transport_quiescent(&self) -> bool {
        self.endpoints
            .as_ref()
            .is_none_or(|eps| eps.values().all(Endpoint::is_quiescent))
    }
}
