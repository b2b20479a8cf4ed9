//! Level-4 storage: the multi-experiment repository.
//!
//! "The fourth level describes the integration of multiple experiments into
//! a single repository to facilitate comparison and analysis covering
//! multiple experiments. To date, ExCovery does not realize this level."
//! (§IV-F) — implemented here as the extension the paper anticipates: a
//! directory of level-3 packages with an index and cross-experiment query
//! helpers.

use crate::engine::{Database, StoreError};
use crate::records::ExperimentInfo;
use std::fs;
use std::path::PathBuf;

/// A directory holding many level-3 experiment packages.
#[derive(Debug, Clone)]
pub struct Repository {
    root: PathBuf,
}

/// Index entry of one stored experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepoEntry {
    /// Experiment identifier (file stem).
    pub id: String,
    /// Experiment name from `ExperimentInfo`.
    pub name: String,
    /// Comment from `ExperimentInfo`.
    pub comment: String,
}

impl Repository {
    /// Opens (creating if necessary) a repository at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| StoreError(format!("create repo: {e}")))?;
        Ok(Self { root })
    }

    fn path_of(&self, id: &str) -> PathBuf {
        self.root.join(format!("{id}.expdb"))
    }

    /// Stores a level-3 package under `id`; refuses to overwrite.
    pub fn store(&self, id: &str, db: &Database) -> Result<(), StoreError> {
        let path = self.path_of(id);
        if path.exists() {
            return Err(StoreError(format!("experiment '{id}' already stored")));
        }
        db.save(&path)
    }

    /// Loads the package stored under `id`.
    pub(crate) fn load(&self, id: &str) -> Result<Database, StoreError> {
        Database::load(&self.path_of(id))
    }

    /// The ids of the stored packages, sorted.
    fn ids(&self) -> Result<Vec<String>, StoreError> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.root).map_err(|e| StoreError(format!("list: {e}")))? {
            let path = entry.map_err(|e| StoreError(e.to_string()))?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("expdb") {
                let id = path.file_stem().unwrap_or_default().to_string_lossy();
                ids.push(id.into_owned());
            }
        }
        ids.sort();
        Ok(ids)
    }

    /// Lists stored experiments with their metadata, sorted by id.
    pub fn index(&self) -> Result<Vec<RepoEntry>, StoreError> {
        self.map_experiments(|id, db| {
            let info = ExperimentInfo::read(db)?;
            Ok(RepoEntry {
                id: id.to_string(),
                name: info.name,
                comment: info.comment,
            })
        })
    }

    /// Runs `f` over every stored experiment in id order, loading each
    /// package once, and collects the results — the cross-experiment
    /// analysis the paper's level 4 is for.
    pub fn map_experiments<T>(
        &self,
        mut f: impl FnMut(&str, &Database) -> Result<T, StoreError>,
    ) -> Result<Vec<T>, StoreError> {
        self.ids()?
            .iter()
            .map(|id| f(id, &self.load(id)?))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{create_level3_database, EE_VERSION};

    fn package(name: &str) -> Database {
        let mut db = create_level3_database();
        ExperimentInfo {
            exp_xml: format!("<experiment name=\"{name}\"/>"),
            ee_version: EE_VERSION.into(),
            name: name.into(),
            comment: format!("{name} comment"),
        }
        .insert(&mut db)
        .unwrap();
        db
    }

    fn temp_repo(tag: &str) -> Repository {
        let root =
            std::env::temp_dir().join(format!("excovery-repo-{}-{}", tag, std::process::id()));
        fs::remove_dir_all(&root).ok();
        Repository::open(root).unwrap()
    }

    #[test]
    fn store_load_roundtrip() {
        let repo = temp_repo("rt");
        let db = package("exp-a");
        repo.store("exp-a", &db).unwrap();
        assert_eq!(repo.load("exp-a").unwrap(), db);
        fs::remove_dir_all(repo.root).ok();
    }

    #[test]
    fn no_silent_overwrite() {
        let repo = temp_repo("ovw");
        repo.store("x", &package("x")).unwrap();
        assert!(repo.store("x", &package("x")).is_err());
        fs::remove_dir_all(repo.root).ok();
    }

    #[test]
    fn index_lists_all_sorted() {
        let repo = temp_repo("idx");
        repo.store("b-exp", &package("second")).unwrap();
        repo.store("a-exp", &package("first")).unwrap();
        let idx = repo.index().unwrap();
        assert_eq!(idx.len(), 2);
        assert_eq!(idx[0].id, "a-exp");
        assert_eq!(idx[0].name, "first");
        assert_eq!(idx[1].comment, "second comment");
        fs::remove_dir_all(repo.root).ok();
    }

    #[test]
    fn map_experiments_crosses_packages() {
        let repo = temp_repo("map");
        repo.store("e1", &package("one")).unwrap();
        repo.store("e2", &package("two")).unwrap();
        let names = repo
            .map_experiments(|id, db| Ok(format!("{id}:{}", ExperimentInfo::read(db)?.name)))
            .unwrap();
        assert_eq!(names, vec!["e1:one", "e2:two"]);
        fs::remove_dir_all(repo.root).ok();
    }

    #[test]
    fn missing_load_errs() {
        let repo = temp_repo("rm");
        assert!(repo.load("gone").is_err());
        fs::remove_dir_all(repo.root).ok();
    }
}
