"""The nine benchmark surrogates (SPECint95 + deltablue).

Each benchmark from the paper's Table 1/2 is modelled as a mix of region
*groups*: a group is ``count`` identical regions sharing a flow budget
(``share`` of the total).  The mixes are solved so that the design head
and path counts equal the paper's Table 2 exactly, and the hot-kernel
groups' iteration counts and skews are chosen so the 0.1% hot set's size
and captured flow land in the paper's Table 1 band:

==========  =======  =======  ===========  ======  =========
benchmark   #paths   #heads   hot #paths   %flow   character
==========  =======  =======  ===========  ======  =========
compress        230      143           45    99.6  loop-dominated
gcc          36,738    8,873          137    47.5  huge cold path space
go           29,629    1,813          172    55.5  huge cold path space
ijpeg        62,125      669           74    93.3  mills + hot kernels
li            1,391      710          111    93.8  interpreter loops
m88ksim       1,426      651          107    92.5  simulator loops
perl          2,776    1,053          146    88.5  moderate
vortex        5,825    3,414           95    85.8  many heads
deltablue       505      268           28    93.9  small, dominant
==========  =======  =======  ===========  ======  =========

Flows are scaled down ~2000× from the paper's (billions of path events
don't fit a laptop-scale Python run); the hot threshold is a fraction
(0.1%) so the scaling rescales ``h`` and τ together and preserves curve
shapes.  ijpeg/gcc/go get proportionally larger flows so their huge path
spaces stay cold relative to the threshold (see DESIGN.md §3).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.workloads.generator import WorkloadConfig
from repro.workloads.regions import RegionSpec


@dataclass(frozen=True)
class Group:
    """``count`` identical regions sharing ``share`` of the flow."""

    count: int
    share: float
    spec: RegionSpec

    def __post_init__(self) -> None:
        if self.count < 1:
            raise WorkloadError("group count must be positive")
        if not 0 <= self.share <= 1:
            raise WorkloadError("group share must be in [0, 1]")


def _expected_flow_per_visit(spec: RegionSpec) -> float:
    """Mean path occurrences one visit of a region emits."""
    if spec.kind == "nest":
        return spec.outer_iters_mean * (spec.depth - 1 + spec.iters_mean + 1)
    return spec.iters_mean + 1


def _expand_groups(groups: list[Group]) -> list[RegionSpec]:
    """Turn groups into concrete regions with visit weights.

    A region's weight is proportional to its group's share divided by the
    group size and the expected flow per visit, so each group's realized
    flow approximates ``share × target_flow``.  A group's regions are
    one shared (frozen) spec, repeated.
    """
    regions: list[RegionSpec] = []
    for group in groups:
        per_visit = _expected_flow_per_visit(group.spec)
        weight = group.share / (group.count * per_visit)
        spec = dataclasses.replace(group.spec, weight=weight)
        regions += [spec] * group.count
    return regions


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark: its group mix plus the paper's reference figures."""

    name: str
    flow: int
    seed: int
    groups: list[Group]
    paper_paths: int
    paper_heads: int
    paper_hot_paths: int
    paper_hot_flow_percent: float
    paper_flow_millions: int
    #: Whether Dynamo processes the program without bailing out (Fig. 5).
    dynamo_runs: bool = True

    def config(self, flow_scale: float = 1.0) -> WorkloadConfig:
        """Build the generator config, optionally rescaling the flow."""
        return WorkloadConfig(
            name=self.name,
            seed=self.seed,
            target_flow=max(int(self.flow * flow_scale), 1),
            regions=_expand_groups(self.groups),
        )


def _loop(count, share, tails, skew, iters, blocks=(3, 8), ipb=3) -> Group:
    return Group(
        count=count,
        share=share,
        spec=RegionSpec(
            kind="loop",
            num_tails=tails,
            tail_skew=skew,
            iters_mean=iters,
            blocks_min=blocks[0],
            blocks_max=blocks[1],
            instr_per_block=ipb,
        ),
    )


def _nest(count, share, depth, outer, inner, blocks=(3, 8), ipb=3) -> Group:
    return Group(
        count=count,
        share=share,
        spec=RegionSpec(
            kind="nest",
            depth=depth,
            outer_iters_mean=outer,
            iters_mean=inner,
            blocks_min=blocks[0],
            blocks_max=blocks[1],
            instr_per_block=ipb,
        ),
    )


BENCHMARKS: dict[str, BenchmarkSpec] = {
    "compress": BenchmarkSpec(
        name="compress",
        flow=1_500_000,
        seed=9101,
        groups=[
            _nest(10, 0.552, depth=3, outer=20, inner=1600, blocks=(3, 6)),
            _loop(25, 0.386, tails=1, skew=0.0, iters=1500, blocks=(3, 6)),
            _loop(5, 0.050, tails=2, skew=0.6, iters=800, blocks=(3, 6)),
            _nest(21, 0.006, depth=3, outer=2, inner=8, blocks=(3, 6)),
            _loop(19, 0.004, tails=1, skew=0.0, iters=8, blocks=(3, 6)),
            _loop(1, 0.002, tails=2, skew=0.3, iters=8, blocks=(3, 6)),
        ],
        paper_paths=230,
        paper_heads=143,
        paper_hot_paths=45,
        paper_hot_flow_percent=99.6,
        paper_flow_millions=3061,
    ),
    "gcc": BenchmarkSpec(
        name="gcc",
        flow=1_500_000,
        seed=9102,
        groups=[
            _loop(60, 0.42, tails=2, skew=1.3, iters=40),
            _loop(17, 0.06, tails=1, skew=0.0, iters=120),
            _loop(7456, 0.4408, tails=3, skew=0.3, iters=8),
            _loop(1340, 0.0792, tails=4, skew=0.3, iters=8),
        ],
        paper_paths=36_738,
        paper_heads=8_873,
        paper_hot_paths=137,
        paper_hot_flow_percent=47.5,
        paper_flow_millions=2191,
        dynamo_runs=False,
    ),
    "go": BenchmarkSpec(
        name="go",
        flow=1_200_000,
        seed=9103,
        groups=[
            _loop(40, 0.46, tails=4, skew=1.0, iters=60),
            _loop(12, 0.10, tails=1, skew=0.0, iters=150),
            _loop(532, 0.235, tails=15, skew=0.15, iters=10),
            _loop(1229, 0.205, tails=16, skew=0.15, iters=10),
        ],
        paper_paths=29_629,
        paper_heads=1_813,
        paper_hot_paths=172,
        paper_hot_flow_percent=55.5,
        paper_flow_millions=1214,
        dynamo_runs=False,
    ),
    "ijpeg": BenchmarkSpec(
        name="ijpeg",
        flow=2_500_000,
        seed=9104,
        groups=[
            _loop(20, 0.55, tails=3, skew=1.5, iters=500),
            _loop(14, 0.38, tails=1, skew=0.0, iters=2000),
            _loop(213, 0.0235, tails=96, skew=0.05, iters=15),
            _loop(422, 0.0465, tails=97, skew=0.05, iters=15),
        ],
        paper_paths=62_125,
        paper_heads=669,
        paper_hot_paths=74,
        paper_hot_flow_percent=93.3,
        paper_flow_millions=635,
        dynamo_runs=False,
    ),
    "li": BenchmarkSpec(
        name="li",
        flow=2_000_000,
        seed=9105,
        groups=[
            _loop(100, 0.65, tails=1, skew=0.0, iters=900, ipb=4),
            _loop(5, 0.21, tails=2, skew=0.8, iters=1200, ipb=4),
            _loop(1, 0.06, tails=1, skew=0.0, iters=3000, ipb=4),
            _nest(17, 0.02, depth=3, outer=2, inner=8, ipb=4),
            _loop(553, 0.06, tails=1, skew=0.0, iters=8, ipb=4),
        ],
        paper_paths=1_391,
        paper_heads=710,
        paper_hot_paths=111,
        paper_hot_flow_percent=93.8,
        paper_flow_millions=3985,
    ),
    "m88ksim": BenchmarkSpec(
        name="m88ksim",
        flow=1_800_000,
        seed=9106,
        groups=[
            _loop(90, 0.62, tails=1, skew=0.0, iters=700, blocks=(3, 7)),
            _loop(8, 0.25, tails=2, skew=0.7, iters=1000, blocks=(3, 7)),
            _loop(1, 0.04, tails=1, skew=0.0, iters=2500, blocks=(3, 7)),
            _loop(436, 0.05, tails=1, skew=0.0, iters=8, blocks=(3, 7)),
            _loop(116, 0.04, tails=2, skew=0.3, iters=8, blocks=(3, 7)),
        ],
        paper_paths=1_426,
        paper_heads=651,
        paper_hot_paths=107,
        paper_hot_flow_percent=92.5,
        paper_flow_millions=2014,
    ),
    "perl": BenchmarkSpec(
        name="perl",
        flow=2_000_000,
        seed=9107,
        groups=[
            _loop(110, 0.50, tails=1, skew=0.0, iters=500, blocks=(8, 14), ipb=6),
            _loop(12, 0.24, tails=2, skew=0.8, iters=800, blocks=(8, 14), ipb=6),
            _loop(4, 0.13, tails=3, skew=0.5, iters=800, blocks=(8, 14), ipb=6),
            _loop(277, 0.06, tails=1, skew=0.0, iters=8, blocks=(8, 14), ipb=6),
            _loop(650, 0.07, tails=2, skew=0.3, iters=8, blocks=(8, 14), ipb=6),
        ],
        paper_paths=2_776,
        paper_heads=1_053,
        paper_hot_paths=146,
        paper_hot_flow_percent=88.5,
        paper_flow_millions=1514,
    ),
    "vortex": BenchmarkSpec(
        name="vortex",
        flow=1_500_000,
        seed=9108,
        groups=[
            _loop(70, 0.55, tails=1, skew=0.0, iters=900),
            _loop(5, 0.15, tails=2, skew=0.8, iters=1200),
            _nest(15, 0.14, depth=3, outer=10, inner=600),
            _nest(489, 0.08, depth=3, outer=2, inner=8),
            _loop(1827, 0.08, tails=1, skew=0.0, iters=8),
        ],
        paper_paths=5_825,
        paper_heads=3_414,
        paper_hot_paths=95,
        paper_hot_flow_percent=85.8,
        paper_flow_millions=3016,
        dynamo_runs=False,
    ),
    "deltablue": BenchmarkSpec(
        name="deltablue",
        flow=900_000,
        seed=9109,
        groups=[
            _loop(24, 0.68, tails=1, skew=0.0, iters=1500, blocks=(8, 14), ipb=6),
            _loop(2, 0.24, tails=2, skew=0.8, iters=1500, blocks=(8, 14), ipb=6),
            _nest(17, 0.02, depth=3, outer=2, inner=8, blocks=(8, 14), ipb=6),
            _loop(190, 0.05, tails=1, skew=0.0, iters=8, blocks=(8, 14), ipb=6),
            _loop(1, 0.01, tails=2, skew=0.3, iters=8, blocks=(8, 14), ipb=6),
        ],
        paper_paths=505,
        paper_heads=268,
        paper_hot_paths=28,
        paper_hot_flow_percent=93.9,
        paper_flow_millions=1799,
    ),
}

#: Benchmark order used throughout the reports (the paper's Table 1 order).
BENCHMARK_ORDER = [
    "compress",
    "gcc",
    "go",
    "ijpeg",
    "li",
    "m88ksim",
    "perl",
    "vortex",
    "deltablue",
]

#: The Figure 5 subset: programs Dynamo processes without bail-out.
DYNAMO_BENCHMARKS = [
    name for name in BENCHMARK_ORDER if BENCHMARKS[name].dynamo_runs
]


def benchmark_spec(name: str) -> BenchmarkSpec:
    """Look up a benchmark spec by name."""
    try:
        return BENCHMARKS[name]
    except KeyError:
        known = ", ".join(BENCHMARK_ORDER)
        raise WorkloadError(
            f"unknown benchmark {name!r}; known: {known}"
        ) from None
