"""The benchmark's workloads: rules, fixed side-path files and seeded
event corpora.

The benchmark owns everything here on purpose. The engine's own corpus
generators (``rips.bench.make_corpus``, ``rips.randprog``) may be refactored
later; a workload defined here does not move with them.

Every document is emitted in the block formatting of a recorded monitor
document (``tests/data/graph_event.yaml``): indented sequences, plain
scalars for names, a quoted base64 payload. Names are chosen so that no
plain scalar resolves to a number or a boolean.

Every workload shares the probe harness: a share of message events goes to
``PROBE_TOPIC`` and the probe rule answers each with ``alert("probe <n>")``,
so the n-th probe alert belongs to the n-th probe sent.
"""

from __future__ import annotations

import base64
import os
import random
import stat
from dataclasses import dataclass

PROBE_TOPIC = "/rips_bench/probe"
IDS_NEEDLE = "RIPSBENCH-NEEDLE-ABSENT"
IDS_PATTERN = "alert*"

# Linux execve("/bin//sh") shellcode, the pattern of tests/data/yaraexp3.yar.
SHELLCODE = bytes.fromhex("31c050682f2f7368682f62696e89e3505389e1b00bcd80")
SHELLCODE_YAR = """\
rule shellcode:
{
   strings:
        $payload = "\\x31\\xc0\\x50\\x68\\x2f\\x2f\\x73\\x68\\x68\\x2f\\x62\\x69\\x6e\\x89\\xe3\\x50\\x53\\x89\\xe1\\xb0\\x0b\\xcd\\x80"

   condition:
        $payload
}
"""

# Appended to every workload: the latency probe, a payload scan on probes
# and an External IDS scan whose needle never occurs in the logs.
HARNESS_RULES = f"""
vars:
    probes int = 0;

rules Msg:
    topicin("{PROBE_TOPIC}") ?
        set(probes, probes + 1) => alert("probe " + string(probes));

    topicin("{PROBE_TOPIC}") && payload("shellcode.yar") ?
        alert("shellcode on the probe topic");

rules External:
    idsalert("{IDS_NEEDLE}") ?
        alert("IDS reports the benchmark needle");
"""


# --- YAML emission -------------------------------------------------------


def _seq(indent: str, items) -> str:
    items = list(items)
    if not items:
        return f"{indent}- ~\n"
    return "".join(f"{indent}- {x}\n" for x in items)


def context_yaml(nodes, topics) -> str:
    """``nodes``: (name, gids, services); ``topics``: (name, type, pubs, subs)."""
    out = ["context:\n", "  nodes:\n"]
    for name, gids, services in nodes:
        out.append(f"    - node: {name}\n      gids:\n")
        out.append(_seq("        ", gids))
        out.append("      services:\n")
        for srv, param in services:
            out.append(f"        - service: {srv}\n          params:\n            - {param}\n")
    out.append("  topics:\n")
    for name, type_, pubs, subs in topics:
        out.append(f"    - topic: {name}\n      parameters:\n        - {type_}\n      publishers:\n")
        out.append(_seq("        ", pubs))
        out.append("      subscribers:\n")
        out.append(_seq("        ", subs))
    return "".join(out)


_HEADER = "---\ncurrentlevel: __DEFAULT__\ncurrentgrav: 0.0\nlastalert: ''\n"


def graph_doc(context: str) -> str:
    return f"{_HEADER}event: graph\n{context}...\n"


def message_doc(context: str, topic: str, msgtype: str, payload: bytes) -> str:
    b64 = base64.b64encode(payload).decode("ascii")
    return f"{_HEADER}event: message\n{context}topic: {topic}\nmsgtype: {msgtype}\npayload: '{b64}'\n...\n"


def _gid(rng: random.Random) -> str:
    # A leading hex letter keeps the scalar from resolving as a YAML float.
    head = f"{rng.choice('abcdef')}{rng.randrange(16):x}"
    return head + "".join(f".{rng.randrange(256):02x}" for _ in range(16))


_PARAM_SERVICES = (
    ("describe_parameters", "rcl_interfaces/srv/DescribeParameters"),
    ("get_parameter_types", "rcl_interfaces/srv/GetParameterTypes"),
    ("get_parameters", "rcl_interfaces/srv/GetParameters"),
    ("list_parameters", "rcl_interfaces/srv/ListParameters"),
    ("set_parameters", "rcl_interfaces/srv/SetParameters"),
    ("set_parameters_atomically", "rcl_interfaces/srv/SetParametersAtomically"),
)


def ros_node(rng: random.Random, name: str):
    """A node as ROS 2 reports it: five gids and the six parameter services."""
    return (
        name,
        [_gid(rng) for _ in range(5)],
        [(f"/{name}/{srv}", param) for srv, param in _PARAM_SERVICES],
    )


# --- workloads -----------------------------------------------------------


@dataclass(frozen=True)
class Event:
    doc: bytes
    kind: str  # "graph" | "message"
    probe: int  # n for the n-th probe (1-based), 0 otherwise
    context_repeat: bool  # same context text as the previous event


class Corpus:
    """A workload's event sequence for one seed, generated on demand.

    The same (workload, seed) always yields the same events in the same
    order, however far the sequence is extended.
    """

    def __init__(self, workload: "Workload", seed: int):
        self.workload = workload
        self._rng = random.Random(f"{workload.name}:{seed}")
        self._state = workload.init(self._rng)
        self._probes = 0
        self._prev_context: str | None = None
        self.events: list[Event] = []

    def __getitem__(self, i: int) -> Event:
        while len(self.events) <= i:
            self.events.append(self._next())
        return self.events[i]

    def _next(self) -> Event:
        w, rng = self.workload, self._rng
        kind, context, msg = w.step(rng, self._state)
        probe = 0
        if kind == "message" and rng.random() < w.probe_share:
            self._probes += 1
            probe = self._probes
            msg = (PROBE_TOPIC, "std_msgs/msg/String", rng.randbytes(16))
        text = graph_doc(context) if kind == "graph" else message_doc(context, *msg)
        repeat = context == self._prev_context
        self._prev_context = context
        return Event(text.encode("utf-8"), kind, probe, repeat)


@dataclass(frozen=True)
class Workload:
    name: str
    rules: str  # without the harness
    levels: tuple[str, ...]
    nominal_eps: float  # about the seed's interp.max_eps; sizes the saturation batch
    offered_eps: float  # open-loop rate: half the seed's interp.max_eps on a slow host
    probe_share: float  # share of message events sent to the probe topic
    ids_files: int
    ids_file_bytes: int
    init: object  # rng -> state
    step: object  # (rng, state) -> (kind, context_text, (topic, type, payload) | None)

    @property
    def rules_text(self) -> str:
        return self.rules + HARNESS_RULES


# steady_graph: a deployed robot with a stable graph ---------------------

_STEADY_NODES = (
    "camera_front", "camera_rear", "lidar", "imu_driver", "localization", "map_server",
    "planner", "controller", "base_driver", "teleop", "recorder", "rips",
)
# (topic, type, publishers, subscribers)
_STEADY_TOPICS = (
    ("/parameter_events", "rcl_interfaces/msg/ParameterEvent", _STEADY_NODES[:6], _STEADY_NODES[6:]),
    ("/rosout", "rcl_interfaces/msg/Log", _STEADY_NODES, ()),
    ("/camera_front/image", "sensor_msgs/msg/Image", ("camera_front",), ("recorder", "rips", "planner")),
    ("/camera_front/camera_info", "sensor_msgs/msg/CameraInfo", ("camera_front",), ("recorder",)),
    ("/camera_rear/image", "sensor_msgs/msg/Image", ("camera_rear",), ("recorder", "rips")),
    ("/camera_rear/camera_info", "sensor_msgs/msg/CameraInfo", ("camera_rear",), ("recorder",)),
    ("/scan", "sensor_msgs/msg/LaserScan", ("lidar",), ("localization", "planner", "recorder")),
    ("/imu/data", "sensor_msgs/msg/Imu", ("imu_driver",), ("localization", "recorder")),
    ("/imu/mag", "sensor_msgs/msg/MagneticField", ("imu_driver",), ("localization",)),
    ("/odom", "nav_msgs/msg/Odometry", ("base_driver",), ("localization", "planner", "recorder")),
    ("/tf", "tf2_msgs/msg/TFMessage", ("localization", "base_driver"), ("planner", "controller", "recorder")),
    ("/tf_static", "tf2_msgs/msg/TFMessage", ("base_driver",), ("planner", "controller")),
    ("/map", "nav_msgs/msg/OccupancyGrid", ("map_server",), ("planner", "localization")),
    ("/map_metadata", "nav_msgs/msg/MapMetaData", ("map_server",), ("planner",)),
    ("/amcl_pose", "geometry_msgs/msg/PoseWithCovarianceStamped", ("localization",), ("planner",)),
    ("/goal_pose", "geometry_msgs/msg/PoseStamped", ("teleop",), ("planner",)),
    ("/plan", "nav_msgs/msg/Path", ("planner",), ("controller", "recorder")),
    ("/local_plan", "nav_msgs/msg/Path", ("controller",), ("recorder",)),
    ("/cmd_vel", "geometry_msgs/msg/Twist", ("teleop",), ("base_driver", "recorder")),
    ("/cmd_vel_nav", "geometry_msgs/msg/Twist", ("controller",), ("base_driver",)),
    ("/joint_states", "sensor_msgs/msg/JointState", ("base_driver",), ("localization",)),
    ("/battery_state", "sensor_msgs/msg/BatteryState", ("base_driver",), ("rips", "recorder")),
    ("/diagnostics", "diagnostic_msgs/msg/DiagnosticArray", _STEADY_NODES[:4], ("recorder",)),
    ("/clock", "rosgraph_msgs/msg/Clock", ("recorder",), ()),
    ("/initialpose", "geometry_msgs/msg/PoseWithCovarianceStamped", ("teleop",), ("localization",)),
    ("/costmap", "nav_msgs/msg/OccupancyGrid", ("planner",), ("controller",)),
    ("/speed_limit", "nav2_msgs/msg/SpeedLimit", ("planner",), ("controller",)),
    ("/rips/alerts", "std_msgs/msg/String", ("rips",), ("recorder",)),
)
_STEADY_HOT = (
    ("/camera_front/image", "sensor_msgs/msg/Image"),
    ("/scan", "sensor_msgs/msg/LaserScan"),
    ("/imu/data", "sensor_msgs/msg/Imu"),
    ("/odom", "nav_msgs/msg/Odometry"),
    ("/cmd_vel", "geometry_msgs/msg/Twist"),
)

STEADY_RULES = """\
levels:
    __DEFAULT__;
    ALERT soft;

consts:
    MaxNodes int = 12;

vars:
    descalated int = 0;

rules Graph:
    ! nodecount(1, MaxNodes) && CurrLevel == __DEFAULT__ ?
        alert("detected more than 12 nodes, entering level ALERT"),
        trigger(ALERT);

    nodecount(1, MaxNodes) && CurrLevel == ALERT ?
        set(descalated, descalated + 1),
        alert("returning to default mode, " + string(descalated) + " times"),
        trigger(__DEFAULT__);

    ! topicsubscribercount("/camera_front/image", 0, 3) ?
        alert("camera_front/image: too many subscribers");

    ! topicpublishercount("/cmd_vel", 0, 1) ?
        alert("cmd_vel: too many publishers");

    ! topicpublishercount("/camera_front/image", 0, 1) ?
        alert("camera_front/image: too many publishers");

rules Msg:
    topicmatches("/camera_(front|rear)/image") && ! publishers("camera_front") &&
            ! publishers("camera_rear") ?
        alert("unauthorized publisher on a camera topic");

    topicin("/cmd_vel") && ! publishers("teleop") ?
        alert("unauthorized publisher on /cmd_vel");
"""


def _steady_context(nodes, intruder: str | None) -> str:
    topics = []
    for name, type_, pubs, subs in _STEADY_TOPICS:
        if intruder is not None and name == "/cmd_vel":
            pubs = (*pubs, intruder)
        topics.append((name, type_, pubs, subs))
    return context_yaml(nodes, topics)


def _steady_init(rng: random.Random) -> dict:
    nodes = [ros_node(rng, name) for name in _STEADY_NODES]
    normal = _steady_context(nodes, None)
    return {"nodes": nodes, "normal": normal, "context": normal, "left": rng.randint(200, 400), "episodes": 0}


def _steady_step(rng: random.Random, st: dict):
    # The graph changes every few hundred events: an intruder node joins,
    # publishes on /cmd_vel for a few dozen events and leaves again.
    st["left"] -= 1
    if st["left"] <= 0:
        if st["context"] is st["normal"]:
            st["episodes"] += 1
            intruder = f"intruder_{st['episodes']}"
            nodes = [*st["nodes"], ros_node(rng, intruder)]
            st["context"] = _steady_context(nodes, intruder)
            st["left"] = rng.randint(20, 40)
        else:
            st["context"] = st["normal"]
            st["left"] = rng.randint(200, 400)
    if rng.random() < 0.1:
        return "graph", st["context"], None
    topic, type_ = rng.choice(_STEADY_HOT)
    return "message", st["context"], (topic, type_, rng.randbytes(rng.randint(32, 96)))


# churn: the `rips bench` shape, a fresh graph on every event -------------

_CHURN_TOPICS = ["/bench/pose", "/bench/cmd", "/bench/image", "/bench/imu", "/bench/log"]
_CHURN_NODES = ["driver", "planner", "camera", "logger", "bridge", "watch"]
_CHURN_TYPES = ["std_msgs/msg/String", "geometry_msgs/msg/Twist", "sensor_msgs/msg/Imu"]

# The rules of `rips bench` (BENCH_RULES) as of this benchmark's creation,
# plus one level so that the transition-script path exists.
CHURN_RULES = """\
levels:
    __DEFAULT__;

vars:
    nmsg int = 0;
    ngraph int = 0;
    acc int = 0;
    busy bool = false;
    tag string = "";

rules Graph:
    nodecount(1, 100) && (ngraph * 7 + acc) % 11 != 3 ?
        set(ngraph, ngraph + 1),
        set(acc, acc + ngraph * 3 - 1);

    topiccount(0, 50) && (acc % 5 == 0 || busy) ?
        set(busy, !busy) => set(acc, acc + 2);

    ! nodesinclude("driver", "planner", "camera", "logger", "bridge", "watch", "rips") &&
            ngraph % 97 == 0 ?
        alert("unexpected node inventory: " + string(ngraph));

rules Msg:
    topicin("/bench/pose", "/bench/cmd", "/bench/imu") && nmsg % 13 != 7 ?
        set(nmsg, nmsg + 1),
        set(acc, acc + (nmsg % 9) * 2);

    topicmatches("/bench/.*") && (nmsg * 31 + acc) % 101 == 0 ?
        set(tag, "hit:" + string(nmsg)) => alert(tag);

    msgsubtype("geometry_msgs", "Twist") && publishercount(0, 6) ?
        set(acc, acc * 2 % 1000003 + 1);
"""


def _churn_init(rng: random.Random) -> dict:
    nodes = [
        (name, [_gid(rng)], [(f"/{name}/get_parameters", "rcl_interfaces/srv/GetParameters")])
        for name in _CHURN_NODES
    ]
    return {"nodes": nodes}


def _churn_step(rng: random.Random, st: dict):
    topics = [
        (
            topic,
            rng.choice(_CHURN_TYPES),
            rng.sample(_CHURN_NODES, rng.randint(0, 2)),
            rng.sample(_CHURN_NODES, rng.randint(0, 3)),
        )
        for topic in _CHURN_TOPICS
    ]
    context = context_yaml(st["nodes"], topics)
    if rng.random() < 0.5:
        return "graph", context, None
    payload = rng.randbytes(rng.randint(0, 64))
    return "message", context, (rng.choice(_CHURN_TOPICS), rng.choice(_CHURN_TYPES), payload)


# attack: an intrusion under way on a small stable graph -----------------

_ATTACK_NODES = ("camera", "lidar", "base_driver", "rips")
_ATTACK_TOPICS = (
    ("/parameter_events", "rcl_interfaces/msg/ParameterEvent", _ATTACK_NODES, _ATTACK_NODES),
    ("/rosout", "rcl_interfaces/msg/Log", _ATTACK_NODES, ()),
    ("/camera/image", "sensor_msgs/msg/Image", ("camera",), ("rips",)),
    ("/scan", "sensor_msgs/msg/LaserScan", ("lidar",), ("base_driver", "rips")),
    ("/odom", "nav_msgs/msg/Odometry", ("base_driver",), ("rips",)),
    ("/cmd_vel", "geometry_msgs/msg/Twist", ("rips",), ("base_driver",)),
)
_ATTACK_HOT = (
    ("/camera/image", "sensor_msgs/msg/Image"),
    ("/scan", "sensor_msgs/msg/LaserScan"),
    ("/odom", "nav_msgs/msg/Odometry"),
    ("/cmd_vel", "geometry_msgs/msg/Twist"),
)
_WORDS = (
    "arm", "base", "cam", "nav", "ctl", "drv", "sys", "net", "cfg", "log", "diag", "ops",
    "gripper", "joint", "sensor", "fusion", "state", "relay", "bridge", "proxy",
)
_SUFFIXES = ("exec", "shell", "debug", "status", "data", "token", "passwd", "dump", "info", "raw")

ATTACK_RULES = """\
levels:
    __DEFAULT__;
    SUSPICIOUS soft;

vars:
    foreign int = 0;
    calm int = 0;
    infected int = 0;

rules Graph:
    ! nodesinclude("camera", "lidar", "base_driver", "rips") ?
        alert("unknown node in the graph");

rules Msg:
    ! topicmatches("/(camera/image|scan|odom|cmd_vel|rosout|parameter_events|rips_bench/probe)") ?
        set(foreign, foreign + 1) => alert("foreign topic #" + string(foreign));

    topicmatches("/robot(/[a-z0-9_]+)*/(exec|shell|debug)") && CurrLevel == __DEFAULT__ ?
        alert("command topic in use, raising level"),
        trigger(SUSPICIOUS);

    topicmatches(".*(passwd|shadow|token|secret).*") ?
        alert("credential topic in use");

    topicmatches("/robot/[a-z]+_[0-9]+(/[a-z0-9_]+)*/(dump|raw)") ?
        alert("bulk export topic in use");

    payload("shellcode.yar") ?
        set(infected, infected + 1) => alert("malicious payload #" + string(infected)),
        trigger(SUSPICIOUS);

    topicin("/camera/image", "/scan", "/odom") && CurrLevel == SUSPICIOUS ?
        set(calm, calm + 1);

    calm >= 30 && CurrLevel == SUSPICIOUS ?
        set(calm, 0),
        alert("calm again, lowering level"),
        trigger(__DEFAULT__);
"""


def _attack_init(rng: random.Random) -> dict:
    nodes = [(name, [_gid(rng)], [(f"/{name}/get_parameters", "rcl_interfaces/srv/GetParameters")])
             for name in _ATTACK_NODES]
    return {"context": context_yaml(nodes, _ATTACK_TOPICS)}


def _intruder_topic(rng: random.Random) -> str:
    parts = ["/robot", f"/{rng.choice(_WORDS)}_{rng.randrange(1000)}"]
    while sum(map(len, parts)) < rng.randint(100, 200):
        parts.append("/" + "_".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 3))) + str(rng.randrange(100)))
    parts.append("/" + rng.choice(_SUFFIXES))
    return "".join(parts)


def _attack_step(rng: random.Random, st: dict):
    if rng.random() < 0.05:
        return "graph", st["context"], None
    if rng.random() < 0.5:
        payload = bytearray(rng.randbytes(rng.randint(1024, 3072)))
        if rng.random() < 0.15:
            at = rng.randrange(len(payload) - len(SHELLCODE))
            payload[at : at + len(SHELLCODE)] = SHELLCODE
        return "message", st["context"], (_intruder_topic(rng), "std_msgs/msg/String", bytes(payload))
    topic, type_ = rng.choice(_ATTACK_HOT)
    return "message", st["context"], (topic, type_, rng.randbytes(64))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="steady_graph",
            rules=STEADY_RULES,
            levels=("__DEFAULT__", "ALERT"),
            nominal_eps=120.0,
            offered_eps=40.0,
            probe_share=0.75,
            ids_files=1,
            ids_file_bytes=64 * 1024,
            init=_steady_init,
            step=_steady_step,
        ),
        Workload(
            name="churn",
            rules=CHURN_RULES,
            levels=("__DEFAULT__",),
            nominal_eps=700.0,
            offered_eps=250.0,
            probe_share=0.25,
            ids_files=1,
            ids_file_bytes=64 * 1024,
            init=_churn_init,
            step=_churn_step,
        ),
        Workload(
            name="attack",
            rules=ATTACK_RULES,
            levels=("__DEFAULT__", "SUSPICIOUS"),
            nominal_eps=300.0,
            offered_eps=70.0,
            probe_share=0.45,
            ids_files=4,
            ids_file_bytes=1024 * 1024,
            init=_attack_init,
            step=_attack_step,
        ),
    )
}


# --- files the engine reads ----------------------------------------------


def _ids_log(size: int, index: int) -> bytes:
    # Fixed content, independent of the seed: Suricata fast.log style lines,
    # a 256 KB block repeated to size.
    rng = random.Random(f"ids-log:{index}")
    sigs = ("ET SCAN Nmap", "ET POLICY SSH session", "GPL ICMP PING", "ET INFO DNS query", "SURICATA STREAM")
    block = bytearray()
    while len(block) < min(size, 256 * 1024):
        block += (
            f"10/17-12:{rng.randrange(60):02d}:{rng.randrange(60):02d}.{rng.randrange(10**6):06d}  "
            f"[**] [1:{rng.randrange(2000000, 2100000)}:{rng.randrange(1, 9)}] {rng.choice(sigs)} [**] "
            f"[Priority: {rng.randrange(1, 4)}] {{TCP}} 10.0.{rng.randrange(256)}.{rng.randrange(256)}:"
            f"{rng.randrange(1024, 65536)} -> 10.0.0.{rng.randrange(256)}:{rng.choice((22, 80, 443, 11311))}\n"
        ).encode("ascii")
    return (bytes(block) * (size // len(block) + 1))[:size]


def write_engine_files(workload: Workload, directory: str) -> dict:
    """Write the rules, pattern file, transition scripts and IDS logs for a
    workload under ``directory``; returns their paths."""
    scripts = os.path.join(directory, "scripts")
    ids_dir = os.path.join(directory, "ids")
    os.makedirs(scripts, exist_ok=True)
    os.makedirs(ids_dir, exist_ok=True)
    for level in workload.levels:
        for ext in ("to", "from"):
            path = os.path.join(scripts, f"{level}.{ext}")
            with open(path, "w") as fh:
                fh.write("#!/bin/sh\nexit 0\n")
            os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    for i in range(workload.ids_files):
        with open(os.path.join(ids_dir, f"alert{i}.log"), "wb") as fh:
            fh.write(_ids_log(workload.ids_file_bytes, i))
    with open(os.path.join(directory, "shellcode.yar"), "w") as fh:
        fh.write(SHELLCODE_YAR)
    rules = os.path.join(directory, f"{workload.name}.rul")
    with open(rules, "w") as fh:
        fh.write(workload.rules_text)
    return {"rules": rules, "scripts": scripts, "ids_dir": ids_dir}
