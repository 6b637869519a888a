//! Base batch-job scheduling policies (the paper's Table 3, plus the Slurm
//! multifactor policy of §4.5).
//!
//! Every policy implements [`simhpc::SchedulingPolicy`]: a priority
//! heuristic scored per waiting job, lowest score scheduled first.
//!
//! ```
//! use policies::{PolicyKind, Sjf};
//! use simhpc::{SimConfig, Simulator};
//! use workload::Job;
//!
//! let jobs = vec![Job::new(1, 0.0, 60.0, 60.0, 1)];
//! let sim = Simulator::new(4, SimConfig::default());
//! let result = sim.run(&jobs, &mut Sjf);
//! assert_eq!(result.bsld(), 1.0);
//!
//! // Policies can also be built by name:
//! let mut f1 = "F1".parse::<PolicyKind>().unwrap().build();
//! assert_eq!(f1.name(), "F1");
//! ```

mod f1;
mod memo;
mod registry;
mod simple;
mod slurm;

pub use f1::F1;
pub use registry::PolicyKind;
pub use simple::{Fcfs, Lcfs, Saf, Sjf, Srf};
pub use slurm::SlurmMultifactor;
