//! The 18-field SWF job record.

/// One job record: the 18 standard SWF fields.
///
/// Field semantics follow the Parallel Workloads Archive definition. Values
/// of `-1` mean "unknown/not collected" and are preserved verbatim so that
/// traces round-trip exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwfRecord {
    /// 1: job number, usually sequential from 1.
    pub job_id: u64,
    /// 2: submit time in seconds relative to the trace start.
    pub submit_time: i64,
    /// 3: wait time in seconds (as recorded by the original system).
    pub wait_time: i64,
    /// 4: actual run time in seconds.
    pub run_time: i64,
    /// 5: number of allocated processors.
    pub allocated_procs: i64,
    /// 6: average CPU time used per processor.
    pub avg_cpu_time: f64,
    /// 7: average memory used per processor (KB).
    pub used_memory: f64,
    /// 8: requested number of processors.
    pub requested_procs: i64,
    /// 9: requested (estimated) run time in seconds.
    pub requested_time: i64,
    /// 10: requested memory per processor (KB).
    pub requested_memory: f64,
    /// 11: completion status (1 = completed, 0 = failed, 5 = cancelled, ...).
    pub status: i64,
    /// 12: user id.
    pub user_id: i64,
    /// 13: group id.
    pub group_id: i64,
    /// 14: executable (application) number.
    pub executable: i64,
    /// 15: queue number.
    pub queue: i64,
    /// 16: partition number.
    pub partition: i64,
    /// 17: preceding job number (dependency), or -1.
    pub preceding_job: i64,
    /// 18: think time from preceding job, or -1.
    pub think_time: i64,
}

impl Default for SwfRecord {
    fn default() -> Self {
        SwfRecord {
            job_id: 0,
            submit_time: 0,
            wait_time: -1,
            run_time: -1,
            allocated_procs: -1,
            avg_cpu_time: -1.0,
            used_memory: -1.0,
            requested_procs: -1,
            requested_time: -1,
            requested_memory: -1.0,
            status: 1,
            user_id: -1,
            group_id: -1,
            executable: -1,
            queue: -1,
            partition: -1,
            preceding_job: -1,
            think_time: -1,
        }
    }
}

impl SwfRecord {
    /// The number of processors this job effectively needs: the requested
    /// count when present, otherwise the allocated count.
    pub fn effective_procs(&self) -> i64 {
        if self.requested_procs > 0 {
            self.requested_procs
        } else {
            self.allocated_procs
        }
    }

    /// The runtime estimate usable for scheduling: the requested time when
    /// present, otherwise the actual run time.
    pub fn effective_estimate(&self) -> i64 {
        if self.requested_time > 0 {
            self.requested_time
        } else {
            self.run_time
        }
    }

    /// Whether the record describes a usable job for simulation: it must
    /// have a positive run time and a positive processor count.
    pub fn is_simulatable(&self) -> bool {
        self.run_time > 0 && self.effective_procs() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_procs_falls_back_to_allocated() {
        let r = SwfRecord {
            requested_procs: -1,
            allocated_procs: 16,
            ..Default::default()
        };
        assert_eq!(r.effective_procs(), 16);
        let r = SwfRecord {
            requested_procs: 8,
            allocated_procs: 16,
            ..Default::default()
        };
        assert_eq!(r.effective_procs(), 8);
    }

    #[test]
    fn effective_estimate_falls_back_to_runtime() {
        let r = SwfRecord {
            requested_time: -1,
            run_time: 100,
            ..Default::default()
        };
        assert_eq!(r.effective_estimate(), 100);
        let r = SwfRecord {
            requested_time: 200,
            run_time: 100,
            ..Default::default()
        };
        assert_eq!(r.effective_estimate(), 200);
    }

    #[test]
    fn simulatable_requires_runtime_and_procs() {
        let ok = SwfRecord {
            run_time: 5,
            requested_procs: 1,
            ..Default::default()
        };
        assert!(ok.is_simulatable());
        let no_rt = SwfRecord {
            run_time: 0,
            requested_procs: 1,
            ..Default::default()
        };
        assert!(!no_rt.is_simulatable());
        let no_procs = SwfRecord {
            run_time: 5,
            requested_procs: -1,
            ..Default::default()
        };
        assert!(!no_procs.is_simulatable());
    }
}
