//! # adm-mpirt — distributed-memory runtime model
//!
//! A faithful single-machine model of the paper's MPI + pthreads layer
//! (§III): ranks are OS threads with private memory, point-to-point typed
//! messages with tag/source matching, a barrier, a one-sided **RMA
//! window** for work-load estimates, and
//! the two-thread (mesher + communicator) dynamic load balancer with
//! priority-queue scheduling and threshold-triggered work requests
//! (§II.F).

//!
//! Everything that can block or order events goes through a pluggable
//! [`transport::Transport`]: real threads in production
//! ([`transport::ThreadedTransport`]), or the seeded fault-injecting
//! discrete-event simulator ([`simfault::SimTransport`]) used by the
//! chaos tests to explore adversarial schedules deterministically.

pub mod comm;
pub mod loadbalance;
pub mod pool;
pub mod simfault;
pub mod tasktree;
pub mod transport;
pub mod window;

pub use comm::{comms_for, run, run_with, Comm, Src};
pub use loadbalance::{run_balanced, BalancerConfig, RankStats, WorkItem, WorkQueue};
pub use pool::Pool;
pub use simfault::{FaultPlan, SimTransport, StallPlan};
pub use tasktree::{Executor, Task};
pub use transport::{Lane, Payload, RawMsg, ThreadedTransport, Transport, TransportClock};
pub use window::{Window, WindowHook};
