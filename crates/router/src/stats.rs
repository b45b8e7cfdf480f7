//! Router-level counters, exported in the `phast-obs` report schema so
//! the router's numbers line up with the backends' own `--stats` output.

use phast_obs::Report;

phast_obs::counter_table! {
    /// Counters of one [`Router`](crate::Router) instance.
    pub struct RouterStats {
        /// Request lines written to a backend (retries count again — this is
        /// dispatch work, not client demand).
        forwarded: add_forwarded => "router_forwarded",
        /// Reply lines relayed to clients (answers, stats, and non-retryable
        /// typed errors alike).
        answered: add_answered => "router_answered",
        /// Requests re-dispatched to another replica after a transport
        /// failure or a retryable typed reply.
        failovers: add_failovers => "router_failovers",
        /// Backends ejected from rotation by consecutive failures.
        ejections: add_ejections => "router_ejections",
        /// Ejected backends returned to rotation through the half-open door.
        recoveries: add_recoveries => "router_recoveries",
        /// Pooled backend connections closed instead of reused because their
        /// backend was ejected after they were opened (generation mismatch).
        drained_conns: add_drained_conns => "router_drained_conns",
        /// Requests whose every attempt failed; the client got the last
        /// typed error.
        retries_exhausted: add_retries_exhausted => "router_retries_exhausted",
        /// Requests that found no healthy backend at dispatch time and were
        /// answered with a typed `overloaded` error.
        no_backend: add_no_backend => "router_no_backend",
        /// Health probes sent.
        probes: add_probes => "router_probes",
        /// Health probes that failed (timeout, refused connection, garbage
        /// reply).
        probe_failures: add_probe_failures => "router_probe_failures",
        /// Client connections refused with a typed `busy` line because the
        /// concurrent-connection cap was reached.
        refused_busy: add_refused_busy => "router_refused_busy",
        /// Client connections reaped because a socket read or write
        /// exceeded the I/O timeout (slowloris writers, dead or idle
        /// clients).
        timed_out_connections: add_timed_out_connections => "router_timed_out_connections",
        /// Request lines over the byte cap, answered with a typed
        /// `malformed` line and a close.
        oversized_lines: add_oversized_lines => "router_oversized_lines",
        /// `accept()` failures in the listener loop (e.g. EMFILE); each
        /// backs the accept loop off instead of tight-spinning.
        accept_errors: add_accept_errors => "router_accept_errors",
    }
}

impl RouterStats {
    /// Exports every counter as a `router_*`-prefixed report.
    pub fn report(&self, title: impl Into<String>) -> Report {
        let mut r = Report::new(title);
        self.fill_report(&mut r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_obs::MetricValue;

    #[test]
    fn report_carries_every_counter() {
        let s = RouterStats::default();
        s.add_failovers(2);
        s.add_ejections(1);
        s.add_drained_conns(3);
        s.add_retries_exhausted(4);
        s.add_oversized_lines(5);
        let r = s.report("router");
        let count = |key| r.get(key).cloned();
        assert_eq!(count("router_failovers"), Some(MetricValue::Count(2)));
        assert_eq!(count("router_ejections"), Some(MetricValue::Count(1)));
        assert_eq!(count("router_drained_conns"), Some(MetricValue::Count(3)));
        assert_eq!(
            count("router_retries_exhausted"),
            Some(MetricValue::Count(4))
        );
        assert_eq!(count("router_oversized_lines"), Some(MetricValue::Count(5)));
        // The report is read by position too (`--stats` tables, CI greps):
        // new counters go after the ones that were there.
        let keys: Vec<_> = r.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "router_forwarded",
                "router_answered",
                "router_failovers",
                "router_ejections",
                "router_recoveries",
                "router_drained_conns",
                "router_retries_exhausted",
                "router_no_backend",
                "router_probes",
                "router_probe_failures",
                "router_refused_busy",
                "router_timed_out_connections",
                "router_oversized_lines",
                "router_accept_errors",
            ]
        );
    }
}
