"""Run a B3 campaign with user-defined bounds.

The bounds are the knobs the paper exposes: how many core operations, which
operations, how many files and directories, which write ranges, and which
persistence operations to insert.  This example focuses testing on the
fallocate family against the F2FS-like file system — the scenario that found
the ZERO_RANGE/KEEP_SIZE bug (Table 5, bug 9) — and reads the run the way
the paper's cluster would: each chunk the campaign dispatched is one VM's
batch, timed inside the worker that ran it.

Run with::

    python examples/custom_bounds_campaign.py
"""

from dataclasses import replace

from repro.ace import Bounds
from repro.cluster import ClusterSpec, estimate_campaign_hours
from repro.core import B3Campaign, CampaignConfig
from repro.workload import OpKind


def main() -> int:
    bounds = Bounds(
        seq_length=2,
        operations=(OpKind.WRITE, OpKind.FALLOC, OpKind.FZERO),
        write_ranges=("append", "overlap_start"),
        persistence_ops=(OpKind.FSYNC, OpKind.FDATASYNC),
        label="falloc-focus",
    )
    print("Bounds:", bounds.describe())

    config = CampaignConfig(fs_name="f2fs", bounds=bounds, device_blocks=4096)
    workloads = B3Campaign(config).generate_workloads()
    print(f"ACE generated {len(workloads)} workloads within these bounds\n")

    # One chunk per VM of a small cluster: the chunks are its batches.
    cluster = ClusterSpec(nodes=2, vms_per_node=4)
    chunk_size = -(-len(workloads) // cluster.total_vms)
    campaign = B3Campaign(replace(config, chunk_size=chunk_size))
    result = campaign.run(workloads)
    print(result.summary())
    for group in result.unique_reports():
        print("  *", group.describe())

    run = campaign.last_run
    print(f"\nThe same run as {len(run.chunks)} VM batches on {cluster.describe()}:")
    print("workloads per VM:", ", ".join(str(record.workloads) for record in run.chunks))
    print(f"parallel wall clock {run.max_chunk_seconds:.2f}s "
          f"(one after the other: {sum(record.seconds for record in run.chunks):.2f}s)")
    per_workload = result.testing_seconds / max(result.workloads_tested, 1)
    hours = estimate_campaign_hours(len(workloads), per_workload, cluster)
    print(f"modelled testing time on that cluster: {hours * 3600:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
