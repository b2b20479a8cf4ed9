//! The rpc front of the experiment server: method handlers, the
//! listening daemon, and its deterministic test drive.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use excovery_obs::sync::Mutex;
use excovery_rpc::{
    job, pack_frame, pack_results_page, pack_status, pack_status_list, pack_submit_response,
    unpack_plan, unpack_submit, Fault, JobId, JobState, MethodCall, ResultsPage, ServerRegistry,
    TcpRpcServer, Value, FAULT_INTERNAL_ERROR, FAULT_PARSE_ERROR,
};
use excovery_store::{atomic_write, Database};

use crate::convert::run_plan;
use crate::repo::ServerRepo;
use crate::scheduler::{RoundReport, Scheduler, SchedulerConfig};
use crate::standing::StandingRegistry;
use crate::ServerError;

/// Daemon knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; `127.0.0.1:0` binds an ephemeral port that is
    /// published in the repository's `endpoint` file.
    pub addr: String,
    /// Scheduler knobs.
    pub scheduler: SchedulerConfig,
    /// Sleep between scheduler rounds when nothing is runnable.
    pub poll: Duration,
    /// Page size for `job.results` downloads. Packages larger than one
    /// page ship in multiple round trips; the default keeps each frame
    /// under the wire codec's 16 MiB cap after Base64 expansion.
    pub results_page_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig::default(),
            poll: Duration::from_millis(20),
            results_page_bytes: job::RESULTS_PAGE_BYTES,
        }
    }
}

/// A running experiment server: bound rpc endpoint plus the scheduler
/// over the level-4 repository. Dropping it stops the listener; jobs
/// stay journalled and resume on the next start.
pub struct ExperimentServer {
    repo: Arc<Mutex<ServerRepo>>,
    scheduler: Scheduler,
    standing: Arc<StandingRegistry>,
    rpc: TcpRpcServer,
    poll: Duration,
}

impl ExperimentServer {
    /// Opens (or replays) the repository at `root`, binds the rpc
    /// endpoint and publishes its address in `root/endpoint`. The
    /// scheduler does not run yet: drive it with [`Self::tick`] (tests)
    /// or [`Self::run`] (daemon).
    pub fn start(root: impl Into<PathBuf>, cfg: ServerConfig) -> Result<Self, ServerError> {
        let root = root.into();
        let repo = Arc::new(Mutex::new(ServerRepo::open(&root)?));
        let standing = Arc::new(StandingRegistry::new());
        let registry = build_registry(
            Arc::clone(&repo),
            Arc::clone(&standing),
            cfg.results_page_bytes.max(1),
        );
        let rpc = TcpRpcServer::bind(cfg.addr.as_str(), registry)
            .map_err(|e| ServerError::Storage(format!("bind {}: {e}", cfg.addr)))?;
        atomic_write(
            &ServerRepo::endpoint_path(&root),
            rpc.local_addr().to_string().as_bytes(),
        )?;
        let scheduler =
            Scheduler::with_standing(Arc::clone(&repo), cfg.scheduler, Arc::clone(&standing));
        Ok(ExperimentServer {
            repo,
            scheduler,
            standing,
            rpc,
            poll: cfg.poll,
        })
    }

    /// The bound rpc address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.rpc.local_addr()
    }

    /// The shared repository handle (introspection, tests).
    pub fn repo(&self) -> &Arc<Mutex<ServerRepo>> {
        &self.repo
    }

    /// The standing-query registry serving live campaign frames.
    pub fn standing(&self) -> &Arc<StandingRegistry> {
        &self.standing
    }

    /// Executes one scheduler round (deterministic drive).
    pub fn tick(&mut self) -> Result<RoundReport, ServerError> {
        self.scheduler.tick()
    }

    /// Serves until `stop` returns `true`, sleeping [`ServerConfig::poll`]
    /// between idle rounds.
    pub fn run_until(&mut self, stop: impl Fn() -> bool) -> Result<(), ServerError> {
        while !stop() {
            if self.tick()?.is_idle() {
                std::thread::sleep(self.poll);
            }
        }
        Ok(())
    }

    /// Serves forever (the CLI daemon loop; killed by signal).
    pub fn run(&mut self) -> Result<(), ServerError> {
        self.run_until(|| false)
    }

    /// Stops accepting rpc connections.
    pub fn shutdown(&self) {
        self.rpc.shutdown();
    }
}

/// Reads the bound address a serving daemon published under `root`.
pub fn read_endpoint(root: &Path) -> Result<String, ServerError> {
    std::fs::read_to_string(ServerRepo::endpoint_path(root))
        .map(|s| s.trim().to_string())
        .map_err(|e| ServerError::Storage(format!("read endpoint: {e}")))
}

fn fault_of(e: ServerError) -> Fault {
    let code = match &e {
        ServerError::Description(_) | ServerError::UnknownPreset(_) => FAULT_PARSE_ERROR,
        _ => FAULT_INTERNAL_ERROR,
    };
    Fault::new(code, e.to_string())
}

fn job_id_param(params: &[Value], method: &str) -> Result<JobId, Fault> {
    params
        .first()
        .and_then(Value::as_str)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            Fault::new(
                FAULT_PARSE_ERROR,
                format!("{method}: expected a job id string parameter"),
            )
        })
}

fn completed_package(repo: &ServerRepo, id: JobId) -> Result<(PathBuf, JobState), ServerError> {
    let rec = repo.job(id)?;
    if rec.state != JobState::Completed {
        return Err(ServerError::NotCompleted(id));
    }
    Ok((repo.package_path(id), rec.state))
}

fn build_registry(
    repo: Arc<Mutex<ServerRepo>>,
    standing: Arc<StandingRegistry>,
    page_bytes: u64,
) -> Arc<Mutex<ServerRegistry>> {
    let mut reg = ServerRegistry::new();

    let r = Arc::clone(&repo);
    reg.register(job::JOB_SUBMIT, move |params| {
        let call = MethodCall::new(job::JOB_SUBMIT, params.to_vec());
        let req = unpack_submit(&call)?;
        let (job_id, created) = r.lock().submit(&req).map_err(fault_of)?;
        Ok(pack_submit_response(job_id, created))
    });

    let r = Arc::clone(&repo);
    reg.register(job::JOB_STATUS, move |params| {
        let id = job_id_param(params, job::JOB_STATUS)?;
        let status = r.lock().status(id).map_err(fault_of)?;
        Ok(pack_status(&status))
    });

    let r = Arc::clone(&repo);
    reg.register(job::JOB_LIST, move |_params| {
        Ok(pack_status_list(&r.lock().statuses()))
    });

    let r = Arc::clone(&repo);
    reg.register(job::JOB_RESULTS, move |params| {
        let id = job_id_param(params, job::JOB_RESULTS)?;
        // Optional second parameter: the page offset (decimal string).
        let offset = match params.get(1) {
            None => 0,
            Some(v) => v
                .as_str()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| {
                    Fault::new(
                        FAULT_PARSE_ERROR,
                        format!("{}: offset must be a u64 string", job::JOB_RESULTS),
                    )
                })?,
        };
        let (status, package_path) = {
            let repo = r.lock();
            let (path, _) = completed_package(&repo, id).map_err(fault_of)?;
            (repo.status(id).map_err(fault_of)?, path)
        };
        let chunk_err =
            |e: std::io::Error| fault_of(ServerError::Storage(format!("read package: {e}")));
        let mut file = std::fs::File::open(&package_path).map_err(chunk_err)?;
        let total = file.metadata().map_err(chunk_err)?.len();
        let len = total.saturating_sub(offset.min(total)).min(page_bytes);
        let mut chunk = vec![0u8; len as usize];
        use std::io::{Read, Seek, SeekFrom};
        file.seek(SeekFrom::Start(offset.min(total)))
            .map_err(chunk_err)?;
        file.read_exact(&mut chunk).map_err(chunk_err)?;
        Ok(pack_results_page(&ResultsPage {
            status,
            total,
            offset: offset.min(total),
            chunk,
        }))
    });

    let r = Arc::clone(&repo);
    reg.register(job::QUERY_TABLES, move |params| {
        let id = job_id_param(params, job::QUERY_TABLES)?;
        let path = {
            let repo = r.lock();
            completed_package(&repo, id).map_err(fault_of)?.0
        };
        let db =
            Database::load(&path).map_err(|e| fault_of(ServerError::Storage(e.to_string())))?;
        Ok(Value::Array(
            db.table_names().into_iter().map(Value::str).collect(),
        ))
    });

    let r = Arc::clone(&repo);
    reg.register(job::QUERY_RUN, move |params| {
        let id = job_id_param(params, job::QUERY_RUN)?;
        let plan_value = params.get(1).ok_or_else(|| {
            Fault::new(
                FAULT_PARSE_ERROR,
                format!("{}: expected [job id, plan]", job::QUERY_RUN),
            )
        })?;
        let plan = unpack_plan(plan_value)?;
        let state = {
            let repo = r.lock();
            repo.job(id).map_err(fault_of)?.state
        };
        let frame = match state {
            // Completed jobs answer from the packaged level-3 database.
            JobState::Completed => {
                let path = {
                    let repo = r.lock();
                    completed_package(&repo, id).map_err(fault_of)?.0
                };
                let db = Database::load(&path)
                    .map_err(|e| fault_of(ServerError::Storage(e.to_string())))?;
                run_plan(&db, &plan).map_err(fault_of)?
            }
            JobState::Failed => return Err(fault_of(ServerError::NotCompleted(id))),
            // Queued/running jobs answer from the standing registry:
            // a live, incrementally refreshed view of the campaign so
            // far (empty until the first slice lands).
            _ => standing.frame(id, &plan).map_err(fault_of)?,
        };
        Ok(pack_frame(&frame))
    });

    Arc::new(Mutex::new(reg))
}
