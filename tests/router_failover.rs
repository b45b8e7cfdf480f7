//! The router's failover battery, run by the umbrella's test suite too:
//! a request caught by a dying replica is re-answered exactly once, a
//! corrupt reply tail is a transport fault, an ejected replica rejoins
//! through the half-open door and no healthy replica is a typed reply.
//! The tests live with the router; this file only includes them.

#[path = "../crates/router/tests/failover.rs"]
mod failover;
