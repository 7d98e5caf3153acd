//! Event-driven TCP runtime for the Monocle proxy.
//!
//! The loopback switch fleet ([`SwitchSim`]) runs `monocle_switchsim`'s
//! switch model, so [`SwitchProfile`] and [`SwitchStats`] are re-exported
//! for its callers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod event_loop;
pub mod loopback;
pub mod proxy_app;
pub mod sim;
pub mod timer;

pub use conn::Connection;
pub use event_loop::{ConnId, Driver, EventLoop, IoCtx, TransportEvent};
pub use loopback::{run_loopback, LoopbackConfig, LoopbackReport};
pub use monocle_switchsim::switch::SwitchStats;
pub use monocle_switchsim::SwitchProfile;
pub use proxy_app::{ProxyApp, ProxyAppConfig, SessionStats};
pub use sim::{ControllerSim, ControllerSimConfig, SwitchSim, SwitchSimConfig};
