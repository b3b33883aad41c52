//! Property-based tests for the experience database's persisted forms:
//! a run's JSON, the snapshot file and the journal all read back to what
//! was written, whatever characters the run's label holds.

use harmony::history::wal::{self, WalWriter};
use harmony::history::{ExperienceDb, RunHistory};
use harmony_space::Configuration;
use proptest::collection::vec;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

/// Labels mixing multi-byte UTF-8, the JSON metacharacters `"` and `\`,
/// and control characters: every class the string writer either copies
/// or escapes, in any order, so escapes land at both ends of plain runs.
const LABEL: &str = "[a-z é🚀\"\\\\\n\t\u{0}-\u{1f}]{0,16}";

fn arb_run() -> impl Strategy<Value = RunHistory> {
    (
        LABEL,
        vec(-1.0f64..1.0, 0..4),
        vec((vec(-50i64..50, 2), -1e3f64..1e3), 0..6),
    )
        .prop_map(|(label, characteristics, records)| {
            let mut run = RunHistory::new(label, characteristics);
            for (values, performance) in records {
                run.push(&Configuration::new(values), performance);
            }
            run
        })
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("harmony-properties-test");
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_run_round_trips_through_compact_and_pretty_json(run in arb_run()) {
        let compact = serde_json::to_string(&run).unwrap();
        prop_assert_eq!(serde_json::from_str::<RunHistory>(&compact).unwrap(), run.clone());
        let bytes: RunHistory = serde_json::from_slice(compact.as_bytes()).unwrap();
        prop_assert_eq!(bytes, run.clone());
        let pretty = serde_json::to_string_pretty(&run).unwrap();
        prop_assert_eq!(serde_json::from_str::<RunHistory>(&pretty).unwrap(), run);
    }

    #[test]
    fn a_snapshot_and_its_journal_read_back_unchanged(runs in vec(arb_run(), 0..5)) {
        let mut db = ExperienceDb::new();
        for run in &runs {
            db.add_run(run.clone());
        }
        let (first, second) = (scratch("first.json"), scratch("second.json"));
        db.save(&first).unwrap();
        let loaded = ExperienceDb::load(&first).unwrap();
        prop_assert_eq!(&loaded, &db);
        loaded.save(&second).unwrap();
        prop_assert_eq!(fs::read(&first).unwrap(), fs::read(&second).unwrap());

        let journal = scratch("journal.wal");
        fs::remove_file(&journal).ok();
        let mut writer = WalWriter::open(&journal).unwrap();
        for run in &runs {
            writer.append_run(run).unwrap();
        }
        prop_assert_eq!(wal::replay(&journal).unwrap(), runs);
    }
}
