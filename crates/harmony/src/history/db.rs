//! The data characteristics database.

use crate::history::kmeans::kmeans;
use crate::history::record::RunHistory;
use harmony_linalg::stats::euclidean_sq;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Errors from persisting the database.
#[derive(Debug)]
pub enum DbError {
    /// Filesystem error.
    Io(io::Error),
    /// Serialization error.
    Serde(serde_json::Error),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "experience db io error: {e}"),
            DbError::Serde(e) => write!(f, "experience db serialization error: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<io::Error> for DbError {
    fn from(e: io::Error) -> Self {
        DbError::Io(e)
    }
}

impl From<serde_json::Error> for DbError {
    fn from(e: serde_json::Error) -> Self {
        DbError::Serde(e)
    }
}

/// Accumulated tuning experience: one [`RunHistory`] per prior run, keyed
/// by workload characteristics.
///
/// Classification is the paper's least-squares rule: "the classification
/// algorithm returns j such that Σ_k (c_jk − c_ok)² is the minimum".
///
/// # Examples
///
/// ```
/// use harmony::history::{ExperienceDb, RunHistory};
/// use harmony_space::Configuration;
///
/// let mut db = ExperienceDb::new();
/// let mut run = RunHistory::new("monday", vec![0.8, 0.2]);
/// run.push(&Configuration::new(vec![16, 32]), 88.0);
/// db.add_run(run);
///
/// // Tuesday's traffic looks like Monday's: classification finds it.
/// let (idx, matched) = db.classify(&[0.78, 0.22]).unwrap();
/// assert_eq!(idx, 0);
/// assert_eq!(matched.label, "monday");
/// ```
///
/// Runs are immutable once recorded and held behind [`Arc`], so a clone
/// of the database copies one pointer per run, never the records. The
/// serialized form is the plain run list either way.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExperienceDb {
    runs: Vec<Arc<RunHistory>>,
}

impl ExperienceDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stored runs.
    pub fn runs(&self) -> &[Arc<RunHistory>] {
        &self.runs
    }

    /// Number of stored runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True if no experience is stored yet.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Record a finished run ("the tuning results may be treated as a new
    /// experience and used to update the data characteristics database").
    /// An already shared run is stored by pointer.
    pub fn add_run(&mut self, run: impl Into<Arc<RunHistory>>) {
        self.runs.push(run.into());
    }

    /// Least-squares classification of observed characteristics; returns
    /// the index and run minimizing the squared Euclidean distance, or
    /// `None` if the database is empty or no run has matching
    /// dimensionality.
    pub fn classify(&self, observed: &[f64]) -> Option<(usize, &RunHistory)> {
        let _timer = crate::obs::db_classify_seconds().start_timer();
        // One distance per candidate, no allocation: a running minimum
        // over a single pass (the comparator-based version recomputed
        // both distances on every comparison). Ties keep the earliest
        // run, matching `Iterator::min_by`.
        let mut best: Option<(f64, usize)> = None;
        for (i, r) in self.runs.iter().enumerate() {
            if r.characteristics.len() != observed.len() {
                continue;
            }
            let d = euclidean_sq(&r.characteristics, observed);
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, i));
            }
        }
        best.map(|(_, i)| (i, &*self.runs[i]))
    }

    /// The `k` nearest runs, nearest first (for k-NN style analyzers).
    pub fn nearest_k(&self, observed: &[f64], k: usize) -> Vec<(usize, &RunHistory)> {
        // Each candidate's distance is computed exactly once; the k
        // nearest are then picked with an O(n) partial select and only
        // those k sorted. Ties break by run index — the order the old
        // stable full sort produced.
        let mut by_distance: Vec<(f64, usize)> = self
            .runs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.characteristics.len() == observed.len())
            .map(|(i, r)| (euclidean_sq(&r.characteristics, observed), i))
            .collect();
        let k = k.min(by_distance.len());
        if k == 0 {
            return Vec::new();
        }
        let cmp = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        if k < by_distance.len() {
            by_distance.select_nth_unstable_by(k - 1, cmp);
            by_distance.truncate(k);
        }
        by_distance.sort_unstable_by(cmp);
        by_distance
            .into_iter()
            .map(|(_, i)| (i, &*self.runs[i]))
            .collect()
    }

    /// Compress the database into at most `k` runs by k-means clustering
    /// the characteristic vectors and merging each cluster's records
    /// (Figure 2 lists k-means among the analyzer's clustering
    /// mechanisms). No-op if the database already fits.
    pub fn compress(&mut self, k: usize) {
        if self.runs.len() <= k || k == 0 {
            return;
        }
        let dims = self.runs[0].characteristics.len();
        if self.runs.iter().any(|r| r.characteristics.len() != dims) {
            return; // heterogeneous characteristics: refuse to merge
        }
        let points: Vec<Vec<f64>> = self
            .runs
            .iter()
            .map(|r| r.characteristics.clone())
            .collect();
        let clustering = kmeans(&points, k, 50);
        let mut merged: Vec<RunHistory> = clustering
            .centroids
            .iter()
            .map(|c| RunHistory::new("merged", c.clone()))
            .collect();
        for (run, &cluster) in self.runs.drain(..).zip(&clustering.assignment) {
            let run = Arc::unwrap_or_clone(run);
            let m = &mut merged[cluster];
            if m.label == "merged" {
                m.label = format!("merged:{}", run.label);
            }
            m.records.extend(run.records);
        }
        merged.retain(|r| !r.records.is_empty());
        self.runs = merged.into_iter().map(Arc::new).collect();
    }

    /// Train a decision tree mapping characteristics to run indices (for
    /// [`Classifier::DecisionTree`](crate::history::Classifier)). Returns
    /// `None` when the database is empty or characteristics are
    /// heterogeneous in dimension.
    pub fn train_tree(
        &self,
        params: crate::history::TreeParams,
    ) -> Option<crate::history::DecisionTree> {
        if self.runs.is_empty() {
            return None;
        }
        let dims = self.runs[0].characteristics.len();
        if self.runs.iter().any(|r| r.characteristics.len() != dims) {
            return None;
        }
        let samples: Vec<(Vec<f64>, usize)> = self
            .runs
            .iter()
            .enumerate()
            .map(|(i, r)| (r.characteristics.clone(), i))
            .collect();
        Some(crate::history::DecisionTree::fit(&samples, params))
    }

    /// Persist as JSON.
    ///
    /// The write is crash-safe: the JSON goes to a temporary file in the
    /// same directory which is then atomically renamed over `path`, so a
    /// crash mid-write can never leave a truncated database — readers see
    /// either the old contents or the new, complete ones. On Unix the
    /// directory is fsynced after the rename, so the new name survives
    /// power loss too.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DbError> {
        let _timer = crate::obs::db_save_seconds().start_timer();
        let path = path.as_ref();
        let json = serde_json::to_string_pretty(self)?;
        // The temp file must live on the same filesystem as the target
        // for the rename to be atomic, so place it alongside.
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let result = (|| {
            {
                use io::Write as _;
                let mut file = fs::File::create(&tmp)?;
                file.write_all(json.as_bytes())?;
                file.sync_all()?;
            }
            fs::rename(&tmp, path)?;
            sync_parent_dir(path)
        })();
        if result.is_err() {
            fs::remove_file(&tmp).ok();
        } else {
            crate::obs::db_saves_total().inc();
        }
        result.map_err(DbError::Io)
    }

    /// Load from JSON.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, DbError> {
        let json = fs::read_to_string(path)?;
        Ok(serde_json::from_str(&json)?)
    }

    /// Build a spatial index over the current contents. The index
    /// answers [`classify`](Self::classify) and
    /// [`nearest_k`](Self::nearest_k) queries bit-identically without a
    /// full scan; it is a snapshot — rebuild after mutating the db.
    pub fn build_index(&self) -> crate::history::CharacteristicsIndex {
        crate::history::CharacteristicsIndex::build(self)
    }
}

/// Make a rename in `path`'s directory durable: the rename only updated
/// the directory entry, which lives in the directory's own data.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    fs::File::open(dir)?.sync_all()
}

#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> io::Result<()> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_space::Configuration;

    fn run(label: &str, ch: Vec<f64>, perf: f64) -> RunHistory {
        let mut r = RunHistory::new(label, ch);
        r.push(&Configuration::new(vec![1, 2]), perf);
        r
    }

    #[test]
    fn classify_picks_nearest() {
        let mut db = ExperienceDb::new();
        db.add_run(run("a", vec![0.0, 0.0], 1.0));
        db.add_run(run("b", vec![1.0, 1.0], 2.0));
        db.add_run(run("c", vec![0.4, 0.4], 3.0));
        let (i, r) = db.classify(&[0.45, 0.5]).unwrap();
        assert_eq!(i, 2);
        assert_eq!(r.label, "c");
        assert!(db.classify(&[]).is_none(), "dimension mismatch filtered");
    }

    #[test]
    fn classify_empty_db_is_none() {
        assert!(ExperienceDb::new().classify(&[0.5]).is_none());
    }

    #[test]
    fn nearest_k_is_sorted() {
        let mut db = ExperienceDb::new();
        db.add_run(run("far", vec![9.0], 0.0));
        db.add_run(run("near", vec![1.1], 0.0));
        db.add_run(run("mid", vec![3.0], 0.0));
        let names: Vec<&str> = db
            .nearest_k(&[1.0], 2)
            .iter()
            .map(|(_, r)| r.label.as_str())
            .collect();
        assert_eq!(names, vec!["near", "mid"]);
    }

    #[test]
    fn compress_merges_clusters() {
        let mut db = ExperienceDb::new();
        for i in 0..4 {
            db.add_run(run(&format!("lo{i}"), vec![0.0 + i as f64 * 0.01], 1.0));
            db.add_run(run(&format!("hi{i}"), vec![10.0 + i as f64 * 0.01], 2.0));
        }
        db.compress(2);
        assert_eq!(db.len(), 2);
        // All 8 records survive, 4 per cluster.
        let total: usize = db.runs().iter().map(|r| r.records.len()).sum();
        assert_eq!(total, 8);
        // Centroids near 0.015 and 10.015 (order unspecified).
        let mut cs: Vec<f64> = db.runs().iter().map(|r| r.characteristics[0]).collect();
        cs.sort_by(|a, b| a.total_cmp(b));
        assert!((cs[0] - 0.015).abs() < 0.1);
        assert!((cs[1] - 10.015).abs() < 0.1);
    }

    #[test]
    fn compress_is_noop_when_small() {
        let mut db = ExperienceDb::new();
        db.add_run(run("a", vec![0.0], 1.0));
        let before = db.clone();
        db.compress(5);
        assert_eq!(db, before);
    }

    #[test]
    fn save_load_roundtrip() {
        let mut db = ExperienceDb::new();
        db.add_run(run("persisted", vec![0.25, 0.75], 42.0));
        let dir = std::env::temp_dir().join("harmony-db-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        db.save(&path).unwrap();
        let back = ExperienceDb::load(&path).unwrap();
        assert_eq!(back, db);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn save_replaces_atomically_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("harmony-db-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.json");

        let mut db = ExperienceDb::new();
        db.add_run(run("first", vec![1.0], 1.0));
        db.save(&path).unwrap();
        db.add_run(run("second", vec![2.0], 2.0));
        db.save(&path).unwrap();

        assert_eq!(ExperienceDb::load(&path).unwrap(), db);
        assert!(
            !dir.join("atomic.json.tmp").exists(),
            "temporary file must not survive a successful save"
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn save_into_missing_directory_errors_cleanly() {
        let db = ExperienceDb::new();
        assert!(matches!(
            db.save("/nonexistent/harmony/db.json"),
            Err(DbError::Io(_))
        ));
    }

    #[test]
    #[cfg(unix)]
    fn a_bare_file_name_syncs_the_working_directory() {
        sync_parent_dir(Path::new("db.json")).unwrap();
        sync_parent_dir(&std::env::temp_dir().join("db.json")).unwrap();
        assert!(sync_parent_dir(Path::new("/nonexistent/harmony/db.json")).is_err());
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(matches!(
            ExperienceDb::load("/nonexistent/harmony/db.json"),
            Err(DbError::Io(_))
        ));
    }
}
