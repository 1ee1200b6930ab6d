"""The repo's performance ledger: six workloads, end-to-end metrics from an
untraced pass, per-layer metrics from a traced pass.  See README.md."""
