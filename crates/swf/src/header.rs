//! SWF header metadata extracted from `;`-comment lines.

/// Metadata from SWF header comments (`; Key: Value`).
///
/// Only the keys that matter for simulation are parsed into typed fields;
/// every header line is also kept verbatim in [`SwfHeader::raw_lines`] so a
/// trace can be written back without losing provenance comments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SwfHeader {
    /// `Computer:` — free-text machine description.
    pub computer: Option<String>,
    /// `MaxJobs:` — number of jobs in the log.
    pub max_jobs: Option<u64>,
    /// `MaxNodes:` — node count of the machine.
    pub max_nodes: Option<u32>,
    /// `MaxProcs:` — processor count of the machine.
    pub max_procs: Option<u32>,
    /// `UnixStartTime:` — epoch seconds of the first record.
    pub unix_start_time: Option<i64>,
    /// All header comment lines verbatim (without the leading `;`).
    pub raw_lines: Vec<String>,
}

impl SwfHeader {
    /// Ingest one comment line (the text after the leading `;`).
    pub fn absorb_comment(&mut self, rest: &str) {
        let rest = rest.trim();
        self.raw_lines.push(rest.to_string());
        let Some((key, value)) = rest.split_once(':') else {
            return;
        };
        let value = value.trim();
        match key.trim() {
            "Computer" => self.computer = Some(value.to_string()),
            "MaxJobs" => self.max_jobs = value.parse().ok(),
            "MaxNodes" => self.max_nodes = value.parse().ok(),
            "MaxProcs" => self.max_procs = value.parse().ok(),
            "UnixStartTime" => self.unix_start_time = value.parse().ok(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorbs_known_keys() {
        let mut h = SwfHeader::default();
        h.absorb_comment(" MaxProcs: 338");
        h.absorb_comment(" Computer: IBM SP2 ");
        h.absorb_comment(" Note without colon-value structure maybe");
        assert_eq!(h.max_procs, Some(338));
        assert_eq!(h.computer.as_deref(), Some("IBM SP2"));
        assert_eq!(h.raw_lines.len(), 3);
    }

    #[test]
    fn unparsable_value_is_none() {
        let mut h = SwfHeader::default();
        h.absorb_comment("MaxJobs: lots");
        assert_eq!(h.max_jobs, None);
    }
}
