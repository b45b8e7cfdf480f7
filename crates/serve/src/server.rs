//! The TCP front end of a [`Service`]: a [`LineFront`] whose lines the
//! scheduler answers.
//!
//! Robustness contract: a malformed or invalid request line produces a
//! typed error *reply* and the connection keeps serving; only an I/O
//! failure (or the client closing its half) ends a connection thread.
//! Everything the edge enforces against hostile and broken clients —
//! connection cap, socket timeouts, bounded lines, accept backoff, forced
//! close — is the front's (see [`crate::conn`]), under the limits of the
//! service's [`ServeConfig`](crate::ServeConfig) and counted in its
//! [`ServiceStats`](crate::ServiceStats): `refused_busy`,
//! `timed_out_connections`, `rejected_invalid` (an oversized line is an
//! invalid request) and `accept_errors`.

use crate::conn::{EdgeEvent, FrontLimits, LineFront, LineService};
use crate::protocol::{self, Op};
use crate::scheduler::Service;
use phast_core::HeteroAnswer;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// A running TCP front end over a [`Service`].
pub struct Server {
    front: LineFront,
    service: Arc<Service>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections. Connection limits and timeouts come
    /// from the service's [`ServeConfig`](crate::ServeConfig).
    pub fn spawn(service: Arc<Service>, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        let cfg = service.config();
        let limits = FrontLimits {
            max_conns: cfg.max_conns,
            io_timeout: cfg.io_timeout,
            max_line_bytes: cfg.max_line_bytes,
        };
        let front = LineFront::spawn(Arc::clone(&service), addr, limits, "phast-serve")?;
        Ok(Server { front, service })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The service behind this front end.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Live connections right now.
    pub fn live_connections(&self) -> usize {
        self.front.live_connections()
    }

    /// Stops accepting, force-closes live connections, then drains the
    /// scheduler (graceful for admitted requests, forceful for sockets),
    /// so every admitted request is answered before the process moves on.
    /// A client mid-request observes a closed connection, not a hang.
    pub fn shutdown(mut self) {
        self.front.shutdown();
        self.service.shutdown();
    }
}

impl LineService for Service {
    /// One reply buffer per connection: an answer is encoded straight
    /// into it, so a served tree allocates nothing here.
    type Conn = String;

    fn answer<'c>(&self, reply: &'c mut String, line: &str) -> &'c [u8] {
        reply.clear();
        handle_line_into(self, line, reply);
        reply.push('\n');
        reply.as_bytes()
    }

    fn count(&self, event: EdgeEvent) {
        let stats = self.stats();
        match event {
            EdgeEvent::RefusedBusy => stats.add_refused_busy(1),
            EdgeEvent::TimedOut => stats.add_timed_out_connections(1),
            EdgeEvent::OversizedLine => stats.add_rejected_invalid(1),
            EdgeEvent::AcceptError => stats.add_accept_errors(1),
        }
    }
}

/// Parses and executes one request line, returning the reply line. Never
/// panics on client input — every failure maps to a typed error reply.
pub fn handle_line(service: &Service, line: &str) -> String {
    let mut reply = String::new();
    handle_line_into(service, line, &mut reply);
    reply
}

/// [`handle_line`] appending the reply line to a caller-owned buffer.
pub fn handle_line_into(service: &Service, line: &str, reply: &mut String) {
    let (id, outcome) = match protocol::parse_request(line) {
        Err(err) => {
            service.stats().add_rejected_invalid(1);
            (None, Err(err))
        }
        Ok(req) => {
            let deadline = req.deadline_ms.map(Duration::from_millis);
            let outcome = match req.op {
                Op::Stats => {
                    let report = service.stats().report("phast-serve");
                    reply.push_str(&protocol::encode_report(req.id, &report));
                    return;
                }
                Op::Query(query) => service.call_with_epoch(query, deadline),
                Op::Matrix { sources, targets } => service
                    .matrix_with_epoch(sources, targets, deadline)
                    .map(|(rows, epoch)| (HeteroAnswer::Matrix(rows), epoch)),
            };
            (req.id, outcome)
        }
    };
    match outcome {
        Ok((answer, epoch)) => protocol::encode_answer_into(reply, id, &answer, Some(epoch)),
        Err(err) => reply.push_str(&protocol::encode_error(id, &err)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_reply, ErrorKind, Reply};
    use crate::scheduler::ServeConfig;
    use phast_graph::gen::{Metric, RoadNetworkConfig};

    #[test]
    fn handle_line_maps_failures_to_typed_replies() {
        let net = RoadNetworkConfig::new(6, 6, 3, Metric::TravelTime).build();
        let svc = Service::for_graph(
            &net.graph,
            ServeConfig {
                window: Duration::from_millis(0),
                ..ServeConfig::default()
            },
        );
        let cases = [
            ("garbage", ErrorKind::Malformed),
            (r#"{"op":"fly","source":0}"#, ErrorKind::Malformed),
            (r#"{"op":"tree"}"#, ErrorKind::BadRequest),
            (r#"{"op":"tree","source":999999}"#, ErrorKind::BadRequest),
        ];
        for (line, kind) in cases {
            match decode_reply(&handle_line(&svc, line)).unwrap() {
                Reply::Error(e) => assert_eq!(e.kind, kind, "line {line}"),
                other => panic!("expected error for {line}, got {other:?}"),
            }
        }
        // And after all those failures a valid request still works.
        match decode_reply(&handle_line(&svc, r#"{"op":"p2p","source":0,"target":1}"#)).unwrap()
        {
            Reply::Answer(HeteroAnswer::Point(_)) => {}
            other => panic!("expected answer, got {other:?}"),
        }
        svc.shutdown();
    }

    #[test]
    fn server_binds_ephemeral_port_and_shuts_down() {
        let net = RoadNetworkConfig::new(6, 6, 4, Metric::TravelTime).build();
        let svc = Service::for_graph(&net.graph, ServeConfig::default());
        let srv = Server::spawn(svc, "127.0.0.1:0").unwrap();
        assert_ne!(srv.local_addr().port(), 0);
        srv.shutdown();
    }
}
