"""Send-time elision of flood copies: run directories stay byte-identical
to full flooding, and the traffic counters add up.

The digests below were taken from run directories written before elision
existed, when every copy was scheduled and delivered.  Three configs leave
eta out; their eta-dependent files (gradients.npz, models.npz, summary.txt,
trace.csv) were re-pinned once when such a run started taking its eta from
the stepsize rule at its own schedule's staleness instead of from a
shorter pilot run.  Their event, staleness and manifest digests are still
the pre-elision ones, since the schedule reads no eta.  The objectives are
one-dimensional so that no LAPACK routine feeds the pinned bytes; event
timing, which elision touches, does not depend on the dimension.
"""

import hashlib
import os

import pytest

from dasgd_sim import runio
from dasgd_sim import KERNEL_IMPL
from dasgd_sim.cli import main
from dasgd_sim.config import ExperimentConfig
from dasgd_sim.engine import SimConfig, run
from dasgd_sim.netsim import TimeDistribution, Topology
from dasgd_sim.objective import QuadraticObjective

TRAFFIC_KEYS = ("messages_sent", "messages_duplicate", "messages_elided")

# Eta left out, noisy gradients, random latency of the order of the
# compute time: copies overtake each other and the last event is a
# duplicate delivery.
FC_EXPONENTIAL = """\
[run]
seed = 5
samples_per_node = 25

[objective]
dim = 1
condition = 4.0
sigma = 0.3

[topology]
kind = fully_connected
n = 5

[timing]
compute = uniform:0.8:1.2
latency = exponential:0.3
"""

RING_CONSTANT = """\
[run]
seed = 2
samples_per_node = 25

[objective]
dim = 1
condition = 4.0

[topology]
kind = ring
n = 6

[timing]
compute = exponential:1.0
latency = constant:0.05

[sgd]
eta = 0.01
"""

CUSTOM_UNIFORM = """\
[run]
seed = 9
samples_per_node = 25

[objective]
dim = 1
condition = 4.0

[topology]
kind = custom
n = 6
edges = 0-1,1-2,2-3,3-4,4-5,5-0,0-3,1-4

[timing]
compute = constant:1.0
latency = uniform:0.05:0.6
compute_scale = 1,1,1,1,1,2
"""

# Closure-heavy traffic for the loose column: one-way ring, latency of the
# order of the compute time, so 1,330 of the 1,920 applications reach
# gradients the applier has not seen.  Pinned later than the three above,
# with the kernel that walked the loose closure one gradient at a time.
RING_EXPONENTIAL = """\
[run]
seed = 4
samples_per_node = 30

[objective]
dim = 1
condition = 4.0

[topology]
kind = ring
n = 8

[timing]
compute = uniform:0.8:1.2
latency = exponential:1.0

[sgd]
eta = 0.01
"""

# The benchmark's fc-flood shape: complete graph, constant latency, so
# every elided copy needs no draw; stride 1 at dim 20, so trace rows are
# evaluated in more than one block.  Pinned with flood copies decided
# per copy and trace metrics evaluated per row.
FC_CONSTANT_DIM20 = """\
[run]
seed = 3
samples_per_node = 20

[objective]
dim = 20

[topology]
kind = fully_connected
n = 8

[timing]
compute = constant:1.0
latency = constant:0.01

[sgd]
eta = 0.0001
"""

# Logistic trace rows at stride 1, which the quadratic pins do not cover.
# Pinned with the same per-row evaluation as FC_CONSTANT_DIM20.
LOGISTIC_RING = """\
[run]
seed = 8
samples_per_node = 30

[objective]
kind = logistic
dim = 3
rows = 40

[topology]
kind = ring
n = 6

[timing]
compute = uniform:0.8:1.2
latency = uniform:0.1:0.9

[sgd]
eta = 0.05
"""

# The benchmark's ring-async shape at small size, with thinned trace rows:
# stride 7 logs steps that fall between the per-node batches of
# applications.  Pinned while each application was applied on its own.
RING_ASYNC_STRIDE7 = """\
[run]
seed = 3
samples_per_node = 40
metric_stride = 7

[objective]
dim = 20

[topology]
kind = ring
n = 8

[timing]
compute = uniform:0.8:1.2
latency = exponential:1.0

[sgd]
eta = 0.001
"""

# One straggler 100x slower than its peers: at its first compute, node 11
# applies 1,090 gradients at one instant, more than one trace block of
# rows at stride 1.  Pinned with the same per-application arithmetic as
# RING_ASYNC_STRIDE7.
FC_STRAGGLER = """\
[run]
seed = 1
samples_per_node = 100

[objective]
dim = 20

[topology]
kind = fully_connected
n = 12

[timing]
compute = constant:1.0
latency = constant:0.01
compute_scale = 1,1,1,1,1,1,1,1,1,1,1,100

[sgd]
eta = 0.001
"""

# sha256 per file.  summary.txt is hashed without the traffic counters and
# without its `kernel` line, which names the loaded kernel build.
GOLDEN = {
    "fc_exponential": (FC_EXPONENTIAL, {
        "events.log": "f7e5b1066c5281c571299926f2769c645107a6e23856e66de5198187fdcaec1f",
        "gradients.npz": "553330bccd46ee76fb579b34d3ecbb3ab42274fa795541dd4840f69988663eb2",
        "manifest.txt": "5911c2ad060d44a34314e8c7ced084698a6193549f65275304425d287b17e812",
        "models.npz": "a821b0d08fe1a18f979608dd6b265be8238c8e98f6518a6018fd0d8db6b9f31a",
        "staleness.csv": "df2f1181b8735e2387d0b68d9428dfc7452cb596d02cc7cd420725d4990b6d56",
        "summary.txt": "4a0483efe0b45c704375a407a948d1cffe417d906956f77620748bae2bc6dc03",
        "trace.csv": "d347d3442e2a6b6a6b1e4c76777922c0e589dd7edd4913856ca2240c9d8bb49e",
    }),
    "ring_constant": (RING_CONSTANT, {
        "events.log": "af59160c9ed92ee0dec50a3d19a2575d6b41110a6f4496f7f671e7f5abdcb06c",
        "gradients.npz": "06e319a7e3b31647e1a1d50ace4b21b0e08b32b5d45e0c6699e2c43533462b7f",
        "manifest.txt": "2aba6d85525f95848d43d100ed51540cec2ac425a6084ca3024a52297a596045",
        "models.npz": "dbe020e6215eb51c3e079cc5401cf4e0e5134345f943778e269e7c8e2082eab2",
        "staleness.csv": "8a5a88a24ecd210af1011d5ddf2572153e3136ba85712fd45c32912b1734100f",
        "summary.txt": "e9a04cd52d8918b45cfd4533971c06703223b72daf96f2c12c30b2c36bfd839b",
        "trace.csv": "b68c906dd7e21f83c456dddaa0e1d4245a6daa3516d2fe4c722c4c6c38605c5a",
    }),
    "custom_uniform": (CUSTOM_UNIFORM, {
        "events.log": "c08b9768b846666d90ddac7dc24def4b2b03ec8fbff985515007ce463bb2e8d4",
        "gradients.npz": "b90c59e817905478a6676c96b682ef13b1a52210cc1c2d3cfb53e7103a39720d",
        "manifest.txt": "8d497bb92ba04ca3c0e5a98f49ab8968c114e9b8121d445af8feda152f1e8a08",
        "models.npz": "9de4700e098fb790206c4f3dd552a87a6b69f2f0014add32a75bdbba692f4d47",
        "staleness.csv": "1c6f6f2f9c2879b393afc2224c7ff81579106243a4b7fa662b9a64288e8e4c5a",
        "summary.txt": "d2244ab013ce1732c82cb489b6849b6368bc5116f5bfeabd66fb62794873d569",
        "trace.csv": "cb8b8458c472cef05cd1baeb423472f85a4e6f012d1eedb78dd1e93f4bfd1f72",
    }),
    "ring_exponential": (RING_EXPONENTIAL, {
        "events.log": "19d6791aaa63a82b44c5c913f291061bde32e234475083cf1d8c237b3432ca02",
        "gradients.npz": "f8aacb2ba6b78a562c9f1bb7c703468eed0ad63a789a0354b1ad4d181822b710",
        "manifest.txt": "33ab7e99de86a1d3ca64aa19092bc8369f6e75ffeb8112fe84d50d8470b51f4f",
        "models.npz": "c38491212eea1e30fd3b96b129dee7d63aea2fca5fd7f6eff924b73da15845c1",
        "staleness.csv": "fbbd12098cae3d88ec859de7f1755d1f4ab411a151ed201d136210124be6a00f",
        "summary.txt": "bb58c7c3a39753400809ddad871d58866344ee863bd1a1095ee8148923f2ed04",
        "trace.csv": "a3221df30dbc301ab618f575822df7742169da03757cd2a912a4425f0e5e5c39",
    }),
    "fc_constant_dim20": (FC_CONSTANT_DIM20, {
        "events.log": "2017985cbebd899c1d28859c623c0c4070a7f54ad59cd28e8b18bd7bc6238e1b",
        "gradients.npz": "fd8ce577d825d75e6b011f99f4f3266bc5d373087718e2a5efff5a64f82c35c7",
        "manifest.txt": "3869d5749d949b83e3557618cbcd4fadf5168958664a5884487826057dba3c87",
        "models.npz": "86766386bcf1cd443f45c5ce3b7565fe6e88c677664c3a02ab18de63ede18627",
        "staleness.csv": "028997c6a31ad7294da414aab695a4e2d57e1d49e2dd9fdf3fd56e908c714c07",
        "summary.txt": "bbfdd9c8ae2cf1cf56044cd68e9ab9c8090681082a4c0cf22e8480028dece199",
        "trace.csv": "ae85c0f50ff342378993a22ea5a3040888141193fa4d0882aea04b7859a9560a",
    }),
    "logistic_ring": (LOGISTIC_RING, {
        "events.log": "cc0018d30a5d343fbbbd120d2f0a2441424fd72dc74494d1d9e28713d376941b",
        "gradients.npz": "4ebde7457426f64d157000f60898fc8782861e8c666e69af34ba51057f0c92e0",
        "manifest.txt": "9145b3223a4978fba513ff13ba72e717b21ef892ccfcbc213557212fde98740c",
        "models.npz": "93f5582066c571704c6e6a7883fce9e2f242e72c79fad5383995c45347953d43",
        "staleness.csv": "be9ea780c9d58fbf1215088206aaf5ccfe25aa6dae1389a8a2972e393fccf556",
        "summary.txt": "6acd12b55d747ed1097c7598ca967503000006b8d162902ea440f988bd7c0b29",
        "trace.csv": "8600d40101d5f9853e688c95727a5c3e97133a4293fc71bef53edfbe0c246b1b",
    }),
    "ring_async_stride7": (RING_ASYNC_STRIDE7, {
        "events.log": "71580b8602a4da90c1f09299d8696471da11889e7bd74d6bbf48d0fa56802247",
        "gradients.npz": "1a1ee25d9bced7bf4de8e29cb82b00f56b723760917ac0f638ee83f451a44bbc",
        "manifest.txt": "44a6b0eee699b03abc6ba191b75dfb904a2b17946e656d48491811d58127372e",
        "models.npz": "200b2ee13045c20576cba3c436833a52d3041f918c4bf1db5676ba479b06fa31",
        "staleness.csv": "b0eb966576a1354d1842e214afd6d9aa5460dff0d4148d02a2169859b1d861f7",
        "summary.txt": "23be343f03ee2299d3f4ea2e10ea83d5e6435f342163e4a5358cc95a117119ba",
        "trace.csv": "76a69850fdd19fb82a7823e8a19651d6930c10bd489aaeaddc9188693cfd16c2",
    }),
    "fc_straggler": (FC_STRAGGLER, {
        "events.log": "037c16de610389b484a59bdc724e1f6264d3919e7072586e8f3d7bdb42b60d8c",
        "gradients.npz": "a31f9a485b3997a42910c9a6dd3b9f65b3682c54695fb0f032ce3473588f091d",
        "manifest.txt": "53cc9d11dd1e43d04f82bb541578fb7a255cc83c59f321649f9144761ea044ac",
        "models.npz": "99d6e288914224e507cff60b1d34d4751eb0bbd9d1c825363fcd6983f747b388",
        "staleness.csv": "5029da7a5e503dc7c5d7e60644e5d9e2ca7ccc854895af6a75b79aecd306f05e",
        "summary.txt": "9d0a6deb7aaa302a460c511783a91a87fb88f514bab215461a69a9d079eb5547",
        "trace.csv": "5637aba9cc8bb8f47c8b01769d8f34480699ededc512133700dd1ec1ea5fb1f5",
    }),
}


# Baselines without flooding, pinned before their runners shared the
# start-up, metric and divergence helpers with `run`.  Noisy lock-step
# rounds with a straggler; a parameter server that leaves eta to the
# stepsize rule.
SYNC_NOISY = """\
[run]
mode = sync
seed = 7
samples_per_node = 25

[objective]
dim = 1
condition = 4.0
sigma = 0.3

[topology]
kind = fully_connected
n = 4

[timing]
compute = uniform:0.8:1.2
compute_scale = 1,1,1,3

[sgd]
eta = 0.02
"""

CENTRALIZED_PILOT = """\
[run]
mode = centralized_asgd
seed = 6
samples_per_node = 25

[objective]
dim = 1
condition = 4.0

[topology]
kind = fully_connected
n = 5

[timing]
compute = uniform:0.8:1.2
latency = exponential:0.3
compute_scale = 1,1,1,1,2
"""

# sha256 of every file, summary.txt included whole.
BASELINE_GOLDEN = {
    "sync_noisy": (SYNC_NOISY, {
        "events.log": "31a8da712d6df1af65296ca11b84300dd013270437c28133193fb673008accbc",
        "gradients.npz": "d3b77a19c34b5fbbd716ede0bbd2e0c9329b292497ad79aab7a4455b1431748d",
        "manifest.txt": "7dc320bdb1f911207b44575446e081c3db62328910454d97e27cbc7dde0f9d12",
        "models.npz": "9c87412be7a118e7537d4e5da1eefad5f2be83e2f3bff60fcd23850877afda07",
        "staleness.csv": "523f1c695373ad6283e076e586e1f8e35f1bebb743f78b3e13a85a50665ed634",
        "summary.txt": "833c8a72de3bc7fab17e2ab0f50a4a456cdf413992ef3e74ba2549ce9939452e",
        "trace.csv": "fed93b7f6fdf5014695cbd7be78eaf28c0b62157360f45bbfe9d21f1cc179500",
    }),
    "centralized_pilot": (CENTRALIZED_PILOT, {
        "gradients.npz": "fcd1ab7b2168535fa1c861ecc2b3fba8bf400e3e71513ad03a1f27f94265f133",
        "manifest.txt": "200ad48c1e17d9e2d6e6450d8ac0d08e672f88b40324020a2e1c7b1516b954e2",
        "models.npz": "b62ce82bf63c97ecb3932e86b3260f8a85ea56cd7915ffae051dbb0e5828df3f",
        "staleness.csv": "a7f1174a9ad9c0b4254de5a95755935eb895156702d47f2bfea8e3fd0d114749",
        "summary.txt": "e6b9dd141cb62d25dc9abe6ffcbd8564abb8b2566ebd95406e471700f4e478f2",
        "trace.csv": "93cd2ef0be7a6705c8c8c3d58924841376d12872b21a8d1cc586b162264c73bf",
    }),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_into(tmp_path, capsys, text, digests):
    """Run the config; return its directory, checked to hold exactly the
    pinned files."""
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(out)) == sorted(digests)
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_directory_matches_full_flooding(tmp_path, capsys, name):
    text, digests = GOLDEN[name]
    out = run_into(tmp_path, capsys, text, digests)
    for fname, digest in digests.items():
        data = (out / fname).read_bytes()
        if fname == "summary.txt":
            lines = data.decode("utf-8").splitlines(keepends=True)
            # The counters are appended after every key full flooding wrote.
            assert [ln.split(": ")[0] for ln in lines[-3:]] == list(TRAFFIC_KEYS)
            assert f"kernel: {KERNEL_IMPL}\n" in lines
            data = "".join(ln for ln in lines[:-3]
                           if not ln.startswith("kernel: ")).encode("utf-8")
        assert sha256(data) == digest, fname


@pytest.mark.parametrize("name", sorted(BASELINE_GOLDEN))
def test_baseline_run_directory_is_pinned(tmp_path, capsys, name):
    text, digests = BASELINE_GOLDEN[name]
    out = run_into(tmp_path, capsys, text, digests)
    for fname, digest in digests.items():
        assert sha256((out / fname).read_bytes()) == digest, fname


def test_flood_counters_conserve_copies_on_complete_graph():
    n, budget = 6, 20
    config = SimConfig(
        topology=Topology.fully_connected(n),
        objective=QuadraticObjective([[2.0]]),
        eta=0.01,
        samples_per_node=budget,
        compute_time=TimeDistribution.uniform(0.8, 1.2),
        latency=TimeDistribution.exponential(0.4),
        seed=3,
    )
    res = run(config)
    g = n * budget
    counts = res.messages
    # Plain flooding: n - 1 copies from the producer, then n - 2 from each
    # of the n - 1 nodes that accept it.
    assert counts.sent + counts.elided == g * (n - 1) ** 2
    # Each node other than the producer accepts exactly one copy.
    assert counts.sent - counts.duplicate == g * (n - 1)
    assert counts.elided > 0 and counts.duplicate > 0
    kinds = [e.kind for e in res.events]
    assert kinds.count("send") == counts.sent
    assert kinds.count("duplicate") == counts.duplicate
    assert kinds.count("deliver") == g * (n - 1)


def test_summary_reports_the_result_counters(tmp_path):
    config = ExperimentConfig.parse(FC_EXPONENTIAL)
    result, effective, source = runio.execute(config)
    runio.write_run_dir(str(tmp_path), effective, result, source)
    summary = runio.read_summary(str(tmp_path / "summary.txt"))
    assert [int(summary[k]) for k in TRAFFIC_KEYS] == [
        result.messages.sent, result.messages.duplicate,
        result.messages.elided]


@pytest.mark.parametrize("mode", ["sync", "centralized_asgd"])
def test_baselines_have_no_traffic_counters(tmp_path, mode):
    config = ExperimentConfig.parse(
        f"[run]\nmode = {mode}\nsamples_per_node = 5\n[sgd]\neta = 0.01\n")
    result, effective, source = runio.execute(config)
    assert result.messages is None
    runio.write_run_dir(str(tmp_path), effective, result, source)
    summary = runio.read_summary(str(tmp_path / "summary.txt"))
    assert not set(TRAFFIC_KEYS) & set(summary)
