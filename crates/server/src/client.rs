//! Typed client for the experiment server, used by the `excovery` CLI
//! verbs and the integration tests.

use std::path::Path;

use excovery_rpc::{
    job, pack_plan, pack_submit, unpack_frame, unpack_results_page, unpack_status,
    unpack_status_list, unpack_submit_response, JobId, JobResults, JobStatus, MethodCall,
    NodeProxy, PlanSpec, RpcError, SubmitRequest, TcpOptions, TcpTransport, Value, WireFrame,
};

use crate::server::read_endpoint;
use crate::ServerError;

/// A connection to a running experiment server: one [`NodeProxy`] link,
/// so calls are serialized, single-attempt and unkeyed.
pub struct ServerClient {
    proxy: NodeProxy,
}

impl ServerClient {
    /// Connects to `addr` (`host:port`).
    pub fn connect(addr: &str) -> Result<Self, ServerError> {
        // Analysis calls (query.*, job.results pages) load multi-ten-MB
        // packages server-side before answering, so the per-call budget
        // is far above the control-plane default.
        let opts = TcpOptions {
            call_timeout: std::time::Duration::from_secs(120),
            ..TcpOptions::default()
        };
        Ok(ServerClient {
            proxy: NodeProxy::new(addr, TcpTransport::connect(addr, opts)?),
        })
    }

    /// Connects to the daemon serving the repository at `root`, via its
    /// published `endpoint` file.
    pub fn connect_root(root: &Path) -> Result<Self, ServerError> {
        Self::connect(&read_endpoint(root)?)
    }

    fn call(&self, method: &str, params: Vec<Value>) -> Result<Value, ServerError> {
        Ok(self.proxy.call(method, params)?)
    }

    /// Submits a campaign; returns `(job id, created)`. `created` is
    /// `false` when the submit key dedup'd to an earlier job.
    pub fn submit(&self, req: &SubmitRequest) -> Result<(JobId, bool), ServerError> {
        let MethodCall { method, params } = pack_submit(req);
        let v = self.call(&method, params)?;
        Ok(unpack_submit_response(&v)?)
    }

    /// One job's status.
    pub fn status(&self, id: JobId) -> Result<JobStatus, ServerError> {
        let v = self.call(job::JOB_STATUS, vec![Value::str(id.to_string())])?;
        Ok(unpack_status(&v)?)
    }

    /// All jobs' statuses, in id order.
    pub fn list(&self) -> Result<Vec<JobStatus>, ServerError> {
        let v = self.call(job::JOB_LIST, Vec::new())?;
        Ok(unpack_status_list(&v)?)
    }

    /// Final status plus the packaged level-3 database of a completed
    /// job, assembled from as many `job.results` pages as the package
    /// needs (each page stays under the 16 MiB frame cap).
    pub fn results(&self, id: JobId) -> Result<JobResults, ServerError> {
        let mut package = Vec::new();
        loop {
            let v = self.call(
                job::JOB_RESULTS,
                vec![
                    Value::str(id.to_string()),
                    Value::str(package.len().to_string()),
                ],
            )?;
            let page = unpack_results_page(&v)?;
            if page.offset != package.len() as u64 {
                return Err(ServerError::Rpc(RpcError::Codec(format!(
                    "job.results: expected page at offset {}, got {}",
                    package.len(),
                    page.offset
                ))));
            }
            if page.chunk.is_empty() && page.total != page.offset {
                return Err(ServerError::Rpc(RpcError::Codec(
                    "job.results: empty page before the end of the package".into(),
                )));
            }
            package.extend_from_slice(&page.chunk);
            if package.len() as u64 >= page.total {
                return Ok(JobResults {
                    status: page.status,
                    package,
                });
            }
        }
    }

    /// Table names of a completed job's package.
    pub fn tables(&self, id: JobId) -> Result<Vec<String>, ServerError> {
        let v = self.call(job::QUERY_TABLES, vec![Value::str(id.to_string())])?;
        let names = v.as_array().and_then(|items| {
            let names = items.iter().map(|t| t.as_str().map(str::to_string));
            names.collect::<Option<Vec<String>>>()
        });
        names.ok_or_else(|| {
            ServerError::Rpc(RpcError::Codec(
                "query.tables: expected an array of table names".into(),
            ))
        })
    }

    /// Runs a serialized query plan server-side against a completed
    /// job's package.
    pub fn query(&self, id: JobId, plan: &PlanSpec) -> Result<WireFrame, ServerError> {
        let v = self.call(
            job::QUERY_RUN,
            vec![Value::str(id.to_string()), pack_plan(plan)],
        )?;
        Ok(unpack_frame(&v)?)
    }
}
