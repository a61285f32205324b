//! Machine configuration: the paper's SPT hardware parameters.

use crate::cache::CacheConfig;
use crate::sim::SimError;

/// The most tags one cache level may hold (`sets × ways`): 2^20, 512 times
/// the default L2's 256 × 8. A level allocates its whole tag array when a
/// run starts, 8 bytes a tag, so this bounds a level at 8 MiB.
pub const MAX_CACHE_TAGS: usize = 1 << 20;

/// The deepest call stack a run may set up: 4096 frames, 16 times the
/// default 256. Each core keeps its frames on the heap, one value slot per
/// instruction of the frame's function, so this bounds what a recursive
/// program can make the simulator allocate before its fuel runs out.
pub const MAX_CALL_DEPTH: usize = 1 << 12;

/// Parameters of the simulated two-core SPT machine.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Cycles to spawn a speculative thread (paper: 6).
    pub fork_overhead: u64,
    /// Cycles to commit a speculative thread's results (paper: 5).
    pub commit_overhead: u64,
    /// Branch misprediction penalty (paper: 5).
    pub branch_mispredict_penalty: u64,
    /// Maximum operations a speculative thread may run ahead (hardware
    /// buffering limit; "hardware resources can only support speculative
    /// execution of limited size", §6.1).
    pub max_spec_ops: usize,
    /// Maximum distinct cells in the speculative store buffer.
    pub spec_buffer_entries: usize,
    /// Cache hierarchy parameters.
    pub cache: CacheConfig,
    /// Abort runs longer than this many retired instructions.
    pub fuel: u64,
    /// Maximum call depth.
    pub max_depth: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            fork_overhead: 6,
            commit_overhead: 5,
            branch_mispredict_penalty: 5,
            max_spec_ops: 4000,
            spec_buffer_entries: 512,
            cache: CacheConfig::default(),
            fuel: 500_000_000,
            max_depth: 256,
        }
    }
}

impl MachineConfig {
    /// Checks that the simulator can run this machine in bounded memory:
    /// each cache level's line size, set count and associativity are
    /// positive, no level holds more than [`MAX_CACHE_TAGS`] tags, and
    /// `max_depth` is at most [`MAX_CALL_DEPTH`]. The simulator checks
    /// this when a run starts, before it builds the run's cache or frames.
    ///
    /// # Errors
    ///
    /// [`SimError::BadMachine`] naming the first field out of range.
    pub fn check(&self) -> Result<(), SimError> {
        let c = &self.cache;
        let levels = [
            ("l1", c.l1_line_cells, c.l1_sets, c.l1_ways),
            ("l2", c.l2_line_cells, c.l2_sets, c.l2_ways),
        ];
        for (level, line_cells, sets, ways) in levels {
            for (field, value) in [("line_cells", line_cells), ("sets", sets), ("ways", ways)] {
                if value == 0 {
                    return Err(SimError::BadMachine(format!("cache.{level}_{field} is 0")));
                }
            }
            if sets
                .checked_mul(ways)
                .is_none_or(|tags| tags > MAX_CACHE_TAGS)
            {
                return Err(SimError::BadMachine(format!(
                    "cache.{level}_sets × cache.{level}_ways = {sets} × {ways} is over \
                     {MAX_CACHE_TAGS} tags"
                )));
            }
        }
        if self.max_depth > MAX_CALL_DEPTH {
            return Err(SimError::BadMachine(format!(
                "max_depth {} is over {MAX_CALL_DEPTH}",
                self.max_depth
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_overheads_are_defaults() {
        let c = MachineConfig::default();
        assert_eq!(c.fork_overhead, 6);
        assert_eq!(c.commit_overhead, 5);
        assert_eq!(c.branch_mispredict_penalty, 5);
    }

    #[test]
    fn the_default_machine_passes_its_check() {
        assert_eq!(MachineConfig::default().check(), Ok(()));
    }

    /// The message of `config`'s rejection.
    fn rejection(config: &MachineConfig) -> String {
        match config.check() {
            Err(SimError::BadMachine(msg)) => msg,
            other => panic!("expected a BadMachine rejection, got {other:?}"),
        }
    }

    #[test]
    fn a_zero_cache_geometry_field_is_rejected_by_name() {
        type Field = fn(&mut CacheConfig) -> &mut usize;
        let fields: [(&str, Field); 6] = [
            ("l1_line_cells", |c| &mut c.l1_line_cells),
            ("l1_sets", |c| &mut c.l1_sets),
            ("l1_ways", |c| &mut c.l1_ways),
            ("l2_line_cells", |c| &mut c.l2_line_cells),
            ("l2_sets", |c| &mut c.l2_sets),
            ("l2_ways", |c| &mut c.l2_ways),
        ];
        for (name, field) in fields {
            let mut config = MachineConfig::default();
            *field(&mut config.cache) = 0;
            assert_eq!(rejection(&config), format!("cache.{name} is 0"));
        }
    }

    #[test]
    fn a_tag_array_over_the_ceiling_is_rejected() {
        let mut config = MachineConfig::default();
        config.cache.l2_sets = MAX_CACHE_TAGS / config.cache.l2_ways;
        assert_eq!(config.check(), Ok(()), "exactly at the ceiling");
        config.cache.l2_sets += 1;
        assert!(rejection(&config).starts_with("cache.l2_sets × cache.l2_ways"));
        // A product that overflows `usize` is over the ceiling too.
        let mut config = MachineConfig::default();
        config.cache.l1_sets = usize::MAX;
        config.cache.l1_ways = 2;
        assert!(rejection(&config).starts_with("cache.l1_sets × cache.l1_ways"));
    }

    #[test]
    fn a_call_depth_over_the_ceiling_is_rejected() {
        let mut config = MachineConfig {
            max_depth: MAX_CALL_DEPTH,
            ..MachineConfig::default()
        };
        assert_eq!(config.check(), Ok(()), "exactly at the ceiling");
        config.max_depth += 1;
        assert_eq!(
            rejection(&config),
            format!("max_depth {} is over {MAX_CALL_DEPTH}", MAX_CALL_DEPTH + 1)
        );
    }
}
