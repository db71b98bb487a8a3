"""Run a B3 campaign with user-defined bounds.

The bounds are the knobs the paper exposes: how many core operations, which
operations, how many files and directories, which write ranges, and which
persistence operations to insert.  This example focuses testing on the
fallocate family against the F2FS-like file system — the scenario that found
the ZERO_RANGE/KEEP_SIZE bug (Table 5, bug 9) — and on a cluster-style run of
the same campaign split across simulated VMs.

Run with::

    python examples/custom_bounds_campaign.py
"""

from repro.ace import Bounds
from repro.cluster import ClusterSpec, run_on_cluster
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
    campaign = B3Campaign(config)
    workloads = campaign.generate_workloads()
    print(f"ACE generated {len(workloads)} workloads within these bounds\n")

    result = campaign.run(workloads)
    print(result.summary())
    for group in result.unique_reports():
        print("  *", group.describe())

    print("\nRunning the same workloads partitioned across 8 simulated VMs...")
    cluster_result = run_on_cluster(config, workloads, ClusterSpec(nodes=2, vms_per_node=4),
                                    num_vms=8, label="falloc-focus")
    print(cluster_result.summary())
    per_vm = ", ".join(str(stats.workloads) for stats in cluster_result.vm_stats)
    print(f"workloads per VM: {per_vm}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
