#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]
//! The PLD linking network: a deflection-routed butterfly fat tree.
//!
//! "PLD uses a Hoplite, lightweight, deflection-routed, single-flit packet,
//! packet-switched network using a Butterfly Fat Tree (BFT) topology"
//! (paper Sec. 4.3). The network is what *links* separately compiled pages:
//! leaf-interface control registers add destination headers to outgoing
//! stream data, and those registers are themselves set by in-band
//! configuration packets — so re-linking an application is a handful of
//! packets, not a recompile.
//!
//! This crate is a cycle-level simulator of that network:
//!
//! * [`BftNoc`] — the tree of 3-port deflection switches plus one
//!   [`LeafInterface`] per client (22 pages + DMA ports in the paper's
//!   deployment), stepped one cycle at a time;
//! * single-flit packets with 32-bit payloads; one flit per link per cycle,
//!   which makes each leaf's ~200 MHz × 32 b uplink the bandwidth bottleneck
//!   behind the paper's `-O1` slowdowns (Tab. 3);
//! * deflection routing: switches never buffer — a flit that loses
//!   arbitration is mis-routed and finds its way back, with oldest-first
//!   priority preventing livelock;
//! * in-band configuration: [`BftNoc::send_config`] updates a leaf's
//!   destination table exactly the way the paper re-links operators.
//!
//! # Examples
//!
//! ```
//! use noc::{BftNoc, PortAddr};
//!
//! let mut net = BftNoc::new(4, 2, 16);
//! // Leaf 0, stream 0 sends to leaf 3, input port 1.
//! net.set_dest(0, 0, PortAddr { leaf: 3, port: 1 });
//! net.inject(0, 0, 0xdead_beef).unwrap();
//! for _ in 0..32 {
//!     net.step();
//! }
//! assert_eq!(net.try_recv(3, 1), Some(0xdead_beef));
//! ```

mod leaf;
mod network;
mod switch;

pub use leaf::{LeafInterface, PortAddr};
pub use network::{BftNoc, InjectError, NocStats};
pub use switch::{Flit, FlitKind};
