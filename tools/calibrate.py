#!/usr/bin/env python3
"""Calibration of the 34 device profiles against the published results.

Where the paper states a number (named device values, population medians,
means, mins, counts), the profile is solved to reproduce it; where only the
plot ordering is visible, values are reconstructed monotonically along the
published x-axis order. This script verifies every constraint and emits
`crates/devices/src/data.rs`.

Run from the repository root: python3 tools/calibrate.py (needs rustfmt)
"""

import subprocess

TAGS = ["al","ap","as1","be1","be2","bu1","dl1","dl10","dl2","dl3","dl4","dl5",
        "dl6","dl7","dl8","dl9","ed","je","ls1","ls2","ls3","ls5","ng1","ng2",
        "ng3","ng4","ng5","nw1","owrt","smc","te","to","we","zy1"]

VENDOR = {
 "al":("A-Link","WNAP","e2.0.9A"),
 "ap":("Apple","Airport Express","7.4.2"),
 "as1":("Asus","RT-N15","2.0.1.1"),
 "be1":("Belkin","Wireless N Router","F5D8236-4_WW_3.00.02"),
 "be2":("Belkin","Enhanced N150","F6D4230-4_WW_1.00.03"),
 "bu1":("Buffalo","WZR-AGL300NH","R1.06/B1.05"),
 "dl1":("D-Link","DIR-300","1.03"),
 "dl2":("D-Link","DIR-300","1.04"),
 "dl3":("D-Link","DI-524up","v1.06"),
 "dl4":("D-Link","DI-524","v2.0.4"),
 "dl5":("D-Link","DIR-100","v1.12"),
 "dl6":("D-Link","DIR-600","v2.01"),
 "dl7":("D-Link","DIR-615","v4.00"),
 "dl8":("D-Link","DIR-635","v2.33EU"),
 "dl9":("D-Link","DI-604","v3.09"),
 "dl10":("D-Link","DI-713P","2.60 build 6a"),
 "ed":("Edimax","6104WG","2.63"),
 "je":("Jensen","Air:Link 59300","1.15"),
 "ls1":("Linksys","BEFSR41c2","1.45.11"),
 "ls2":("Linksys","WR54G","v7.00.1"),
 "ls3":("Linksys","WRT54GL v1.1","v4.30.7"),
 "ls5":("Linksys","WRT54GL-EU","v4.30.7"),
 "owrt":("Linksys","WRT54G","OpenWRT RC5"),
 "to":("Linksys","WRT54GL v1.1","tomato 1.27"),
 "ng1":("Netgear","RP614 v4","V1.0.2_06.29"),
 "ng2":("Netgear","WGR614 v7","(1.0.13_1.0.13)"),
 "ng3":("Netgear","WGR614 v9","V1.2.6_18.0.17"),
 "ng4":("Netgear","WNR2000-100PES","v.1.0.0.34_29.0.45"),
 "ng5":("Netgear","WGR614 v4","V5.0_07"),
 "nw1":("Netwjork","54M","Ver 1.2.6"),
 "smc":("SMC","Barricade SMC7004VBR","R1.07"),
 "te":("Telewell","TW-3G","V7.04b3"),
 "we":("Webee","Wireless N Router","e2.0.9D"),
 "zy1":("ZyXel","P-335U","V3.60(AMB.2)C0"),
}

# ---------------------------------------------------------------- UDP-1 --
# Figure 3 x order (ascending). Stated: je..ed = 30 s cluster; ls1 = 691;
# be2 ~ 450; pop median 90.00; pop mean 160.41.
UDP1_ORDER = ["je","owrt","te","to","ed","al","we","ng2","ap","ls3","ls5",
              "dl1","dl2","dl6","dl7","as1","bu1","ls2","nw1","dl3","dl5",
              "be1","dl10","dl4","dl8","smc","dl9","ng1","ng3","ng4","zy1",
              "be2","ng5","ls1"]
UDP1 = dict(zip(UDP1_ORDER, [
    30,30,30,30,30,       # je owrt te to ed (stated cluster)
    35,40,45,60,75,75,    # al we ng2 ap ls3 ls5
    80,80,85,85,88,       # dl1 dl2 dl6 dl7 as1
    90,90,                # bu1 ls2  (median pair = 90.00)
    95,100,100,           # nw1 dl3 dl5
    185,203,205,215,225,  # be1 dl10 dl4 dl8 smc
    235,250,280,300,342,  # dl9 ng1 ng3 ng4 zy1 (tuned: pop mean 160.41)
    450,500,691,          # be2 (stated ~450) ng5 ls1 (stated 691)
]))

# ---------------------------------------------------------------- UDP-2 --
# Figure 4 x order. Stated: min 54 (ap); ed/owrt/to/te = 180; be2 ~ 202;
# pop median 180.00; pop mean 174.67.
UDP2_ORDER = ["ap","ng2","we","je","ls2","nw1","be1","dl3","dl5","dl10",
              "ng3","ng4","ng5","as1","bu1","dl1","dl2","dl6","dl7","owrt",
              "te","ed","ls3","ls5","to","be2","al","dl4","dl8","dl9","ng1",
              "smc","zy1","ls1"]
UDP2 = dict(zip(UDP2_ORDER, [
    54,55,70,90,95,110,          # ap ng2 we je ls2 nw1
    120,120,120,150,160,160,     # be1 dl3 dl5 dl10 ng3 ng4
    170,175,175,180,180,180,180, # ng5 as1 bu1 dl1 dl2 dl6 dl7
    180,180,180,180,180,180,     # owrt te ed ls3 ls5 to (stated 180)
    202,203,265,268,271,274,     # be2 (stated ~202) al dl4 dl8 dl9 ng1
    277,277,277.78,              # smc zy1 ls1 (tuned: pop mean 174.67)
]))

# ---------------------------------------------------------------- UDP-3 --
# Figure 5 x order. Stated: median 181.00; mean 225.94; be1, dl10, ng3,
# ng4, be2, ng5 lengthen to their UDP-1 level; no device shortens vs UDP-2.
UDP3_ORDER = ["ng2","we","je","ls2","nw1","dl3","dl5","ap","as1","bu1",
              "dl1","dl2","dl6","dl7","owrt","te","ed","ls3","ls5","to",
              "be1","al","dl10","dl4","dl8","dl9","ng1","smc","ng3","ng4",
              "zy1","be2","ng5","ls1"]
UDP3 = dict(zip(UDP3_ORDER, [
    60,75,90,110,130,145,145,     # ng2 we je ls2 nw1 dl3 dl5
    160,175,175,180,180,180,180,  # ap as1 bu1 dl1 dl2 dl6 dl7
    180,180,180,182,182,182,      # owrt te ed | ls3 ls5 to (median pair 180/182)
    None,203,None,265,268,271,    # be1(=UDP1) al dl10(=UDP1) dl4 dl8 dl9
    274,277,None,None,            # ng1 smc ng3(=UDP1) ng4(=UDP1)
    443.96,None,None,None,        # zy1 (tuned: pop mean 225.94) be2 ng5 ls1
]))
for d in ["be1","dl10","ng3","ng4","be2","ng5"]:
    UDP3[d] = UDP1[d]
UDP3["ls1"] = 691  # keeps fig-5 order; ls1 is the long-timeout outlier

# Coarse binding timers (wide IQR in Figure 4): granularity seconds.
GRANULARITY = {"we": 30, "al": 30, "je": 10, "ng5": 10}
# Empirical per-device UDP-1 search bias under coarse timers (the binary
# search's convergence phase within the expiry grid is device-specific);
# measured once with tools/calibrate.py defaults and baked in.
UDP1_BIAS = {"we": 11.5, "al": 9.0, "je": 3.0, "ng5": 3.5}

# ---------------------------------------------------------------- TCP-1 --
# Figure 7 x order (log scale, minutes). dl10 is absent from the printed
# order; we place it beside dl9 (similar D-Link era). Stated: be1 = 239 s;
# the seven rightmost still alive after the 24 h cutoff; pop median 59.98;
# pop mean 386.46 (cutoff devices counted as 1440).
TCP1_ORDER = ["be1","ng5","be2","al","ls2","we","ls1","as1","nw1","ng2",
              "je","ng3","ng4","dl3","dl5","dl9","dl10","smc","dl4","dl1",
              "dl2","dl7","dl6","dl8","zy1","to","owrt","ap","bu1","ed",
              "ls3","ls5","ng1","te"]
TCP1_MIN = dict(zip(TCP1_ORDER, [
    239/60, 5, 10, 15, 20, 25,            # be1(stated 239 s) ng5 be2 al ls2 we
    30, 30, 35, 40, 45, 50, 50, 55, 55,   # ls1 as1 nw1 ng2 je ng3 ng4 dl3 dl5
    58, 58.96, 61, 80, 100, 120,          # dl9 dl10 smc dl4 dl1 dl2  (median pair 58.96/61)
    124, 124, 150, 184.7, 330, 1200,      # dl7 dl6 dl8 zy1 to owrt (tuned: mean 386.46)
    1440, 1440, 1440, 1440, 1440, 1440, 1440,  # ap bu1 ed ls3 ls5 ng1 te (cutoff)
]))

# ---------------------------------------------------------------- TCP-4 --
# Figure 10 x order (log scale). Stated: dl9 = smc = 16; ng1/ap ~ 1024;
# pop median 135.5; pop mean 259.21.
TCP4_ORDER = ["dl9","smc","dl10","ls1","dl4","ng2","ls5","ng3","to","ls3",
              "ng5","nw1","be1","ls2","be2","te","dl2","dl6","dl1","dl8",
              "owrt","zy1","ng4","ed","je","dl3","dl7","as1","dl5","bu1",
              "al","we","ng1","ap"]
TCP4 = dict(zip(TCP4_ORDER, [
    16,16,24,32,48,64,80,96,100,112,          # dl9 smc dl10 ls1 dl4 ng2 ls5 ng3 to ls3
    120,128,130,132,134,135,135,136,140,150,  # ng5 nw1 be1 ls2 be2 te dl2 dl6 dl1 dl8
    167,240,260,280,300,380,400,450,500,560,  # owrt zy1 ng4 ed je dl3 dl7 as1 dl5 bu1
    600,700,1024,1024,                        # al we ng1 ap (tuned: mean 259.21)
]))

# ------------------------------------------------------------- TCP-2/3 --
# Forwarding model per device: (down Mb/s, up Mb/s, aggregate Mb/s or None
# for unlimited, buffer KB). Reconstructed from Figure 8's ordering and
# named values: dl10 ~6/6, ls1 ~8/6, smc 41 up / 27 down; thirteen devices
# at wire speed; bidirectional median ~35 vs ~68 unidirectional.
FWD_ORDER = ["dl10","ls1","ap","te","owrt","smc","dl9","ed","zy1","ng4",
             "ng5","ng3","nw1","ls3","ls5","to","ls2","ng2","je","dl2",
             "dl1","we","as1","dl7","be2","be1","dl5","ng1","dl8","al",
             "dl3","dl6","bu1","dl4"]
FWD = {
  # tag: (down, up, agg, buf_kB)
  "dl10": (6.5, 6.5, 7, 64), "ls1": (9, 6.5, 10, 96),
  "ap":  (22, 20, 24, 96),  "te": (30, 28, 33, 128),
  "owrt":(34, 32, 38, 96),  "smc": (27, 41, 45, 96),
  "dl9": (42, 40, 46, 80),  "ed": (46, 44, 50, 96),
  "zy1": (50, 48, 55, 80),  "ng4": (54, 52, 60, 96),
  "ng5": (56, 54, 62, 72),  "ng3": (58, 56, 64, 80),
  "nw1": (60, 58, 66, 72),  "ls3": (62, 60, 68, 64),
  "ls5": (62, 60, 68, 64),  "to": (64, 62, 70, 72),
  "ls2": (66, 64, 72, 80),  "ng2": (68, 66, 74, 72),
  "je":  (70, 68, 76, 64),  "dl2": (74, 72, 80, 64),
  "dl1": (76, 74, 82, 64),
  # wire-speed thirteen (aggregate still finite for a few: not all reach
  # 100 Mb/s in both directions simultaneously — §4.2):
  "we":  (1000, 1000, 150, 64), "as1": (1000, 1000, 160, 56),
  "dl7": (1000, 1000, 170, 56), "be2": (1000, 1000, 180, 48),
  "be1": (1000, 1000, 190, 48), "dl5": (1000, 1000, None, 48),
  "ng1": (1000, 1000, None, 32), "dl8": (1000, 1000, None, 96),
  "al":  (1000, 1000, None, 48), "dl3": (1000, 1000, None, 40),
  "dl6": (1000, 1000, None, 48), "bu1": (1000, 1000, None, 56),
  "dl4": (1000, 1000, None, 48),
}

# UDP-5: dl8 uses a shorter timeout for DNS (port 53).
SERVICE_OVERRIDES = {"dl8": [(53, 120)]}

# ---------------------------------------------------- UDP-4 behaviors ----
# 27/34 preserve the source port; 23 of those reuse an expired binding,
# 4 quarantine it; 7 always allocate sequentially. Assignment reconstructed.
SEQUENTIAL = ["dl10","dl9","dl4","ls1","smc","nw1","zy1"]          # 7
QUARANTINE = ["be1","be2","ng5","ls2"]                              # 4
# remaining 23: preserve + reuse.

# ------------------------------------------------- unknown transports ----
# dl4, dl9, dl10, ls1 pass untranslated; 20 rewrite the IP address only
# (18 of which admit inbound → SCTP works); the other 10 drop.
PASSTHROUGH = ["dl4","dl9","dl10","ls1"]
IPREWRITE_OK = ["al","ap","bu1","dl2","dl6","dl7","ed","je","owrt","to",
                "we","as1","dl1","dl3","dl5","dl8","ls3","ls5"]     # 18 → SCTP works
IPREWRITE_NOIN = ["ng1","ng2"]                                      # 2 → SCTP fails
DROP = ["be1","be2","ls2","ng3","ng4","ng5","nw1","smc","te","zy1"] # 10

# -------------------------------------------------------- DNS over TCP ---
# 14 accept connections on TCP 53; 10 of them answer (ap via UDP upstream);
# 4 accept but never answer.
DNS_TCP_ANSWER = ["owrt","to","bu1","dl6","dl7","ed","je","we","al"]  # 9 via TCP
DNS_TCP_UDP = ["ap"]                                                  # 1 via UDP
DNS_TCP_BLACKHOLE = ["as1","dl2","ls3","ls5"]                         # 4 accept, no answer
# remaining 20 refuse.

# ------------------------------------------------------------- ICMP ------
# Table 2 reconstruction. nw1 translates nothing; everyone else at least
# {Port Unreachable, TTL Exceeded}; ls2 turns TCP-related errors into
# invalid RSTs; zy1 and ls1 forget embedded IP checksum fixups; 16 devices
# do not rewrite embedded transport headers.
KINDS = ["reass","frag","param","srcroute","quench","ttl","host","net","port","proto"]
FULL = set(KINDS)
BASE = {"port","ttl"}
ICMP = {}
for t in TAGS:
    ICMP[t] = dict(tcp=set(FULL), udp=set(FULL), ping_host=True,
                   rewrite=True, fix_ip=True, fix_l4=True, rst=False)
def setk(t, tcp=None, udp=None, ping=None):
    if tcp is not None: ICMP[t]["tcp"] = set(tcp)
    if udp is not None: ICMP[t]["udp"] = set(udp)
    if ping is not None: ICMP[t]["ping_host"] = ping

# nw1: nothing.
setk("nw1", tcp=set(), udp=set(), ping=False)
# The five-bullet devices: baseline both transports, nothing else.
for t in ["dl10","dl4","dl9","smc"]:
    setk(t, tcp=BASE, udp=BASE, ping=False)
# be1/be2/ng5 (9 bullets): baseline + host unreachable both ways + ping.
for t in ["be1","be2","ng5"]:
    setk(t, tcp=BASE|{"host"}, udp=BASE|{"host"}, ping=True)
# ls2 (11): all UDP kinds, TCP errors become invalid RSTs.
setk("ls2", tcp=set(), udp=FULL, ping=False)
ICMP["ls2"]["rst"] = True
# ls1 (13): baseline+host+net both ways, frag-needed for TCP, ping, and the
# checksum bug (rewrites embedded headers but forgets the IP checksum).
setk("ls1", tcp=BASE|{"host","net","frag"}, udp=BASE|{"host","net"}, ping=True)
ICMP["ls1"]["fix_ip"] = False
# zy1 (22): full minus source quench both ways, with the checksum bug.
setk("zy1", tcp=FULL-{"quench"}, udp=FULL-{"quench"}, ping=True)
ICMP["zy1"]["fix_ip"] = False
# 23-bullet devices: one kind missing (source quench on the TCP side).
for t in ["as1","dl1","dl8","ls3","ls5","ng3","ng4","te"]:
    setk(t, tcp=FULL-{"quench"}, udp=FULL)
# 22-bullet devices: source quench missing on both sides.
for t in ["dl3","dl5","ng1","ng2"]:
    setk(t, tcp=FULL-{"quench"}, udp=FULL-{"quench"})
# 16 devices do not rewrite embedded transport headers (prose in §4.3).
# nw1 is excluded (it forwards nothing, so rewriting is unobservable) and
# zy1/ls1 are excluded (they *do* rewrite — their bug is the stale
# checksum); the count is made up with three mid-tier devices.
NO_REWRITE = ["be1","be2","dl10","dl4","dl9","ls2","ng5","smc",
              "dl3","dl5","ng1","ng2","te","ng3","ng4","dl1"]
for t in NO_REWRITE:
    ICMP[t]["rewrite"] = False
    ICMP[t]["fix_l4"] = False

# ------------------------------------------------------------ checks -----
def check():
    import statistics as st
    def pop(d):
        vals = [float(d[t]) for t in TAGS]
        return st.median(vals), sum(vals)/len(vals)
    m,mean = pop(UDP1); assert abs(m-90)<1e-9 and abs(mean-160.41)<0.05,(m,mean)
    order = [UDP1[t] for t in UDP1_ORDER]
    assert order == sorted(order), "udp1 order"
    m,mean = pop(UDP2); assert abs(m-180)<1e-9 and abs(mean-174.67)<0.05,(m,mean)
    order = [UDP2[t] for t in UDP2_ORDER]
    assert order == sorted(order), "udp2 order"
    assert min(UDP2.values()) == 54
    m,mean = pop(UDP3); assert abs(m-181)<1e-9 and abs(mean-225.94)<0.05,(m,mean)
    for t in TAGS: assert UDP3[t] >= UDP2[t]-1e-9, (t,UDP2[t],UDP3[t])
    order = [UDP3[t] for t in UDP3_ORDER]
    assert order == sorted(order), "udp3 order"
    m,mean = pop(TCP1_MIN)
    assert abs(m-59.98)<1e-9,(m,)
    assert abs(mean-386.46)<0.05,(mean,)
    order=[TCP1_MIN[t] for t in TCP1_ORDER]; assert order==sorted(order)
    m,mean = pop(TCP4); assert abs(m-135.5)<1e-9 and abs(mean-259.21)<0.05,(m,mean)
    order=[TCP4[t] for t in TCP4_ORDER]; assert order==sorted(order)
    assert len(SEQUENTIAL)==7 and len(QUARANTINE)==4
    assert len(PASSTHROUGH)==4 and len(IPREWRITE_OK)==18 and len(IPREWRITE_NOIN)==2 and len(DROP)==10
    assert set(PASSTHROUGH+IPREWRITE_OK+IPREWRITE_NOIN+DROP)==set(TAGS)
    assert len(DNS_TCP_ANSWER)+len(DNS_TCP_UDP)==10
    assert len(DNS_TCP_ANSWER)+len(DNS_TCP_UDP)+len(DNS_TCP_BLACKHOLE)==14
    print("all constraints satisfied")
    print("udp1 pop", pop(UDP1), "udp2", pop(UDP2), "udp3", pop(UDP3))
    print("tcp1", pop(TCP1_MIN), "tcp4", pop(TCP4))

# ------------------------------------------------------------ codegen ----
KIND_RS = {"reass":"ReassemblyTimeExceeded","frag":"FragNeeded","param":"ParamProblem",
           "srcroute":"SourceRouteFailed","quench":"SourceQuench","ttl":"TtlExceeded",
           "host":"HostUnreachable","net":"NetUnreachable","port":"PortUnreachable",
           "proto":"ProtoUnreachable"}

def kindset(s):
    if s == FULL: return "IcmpKindSet::ALL"
    if not s: return "IcmpKindSet::NONE"
    e = "IcmpKindSet::NONE"
    for k in KINDS:
        if k in s: e += f".with(IcmpErrorKind::{KIND_RS[k]})"
    return e

def emit():
    out = []
    out.append("//! Calibrated data for the 34 devices of Table 1.")
    out.append("//!")
    out.append("//! GENERATED by tools/calibrate.py — edit that script, not this file.")
    out.append("//! Values marked `stated` come directly from the paper; the rest are")
    out.append("//! reconstructed to satisfy the published orderings and population")
    out.append("//! statistics (see DESIGN.md §5).")
    out.append("")
    out.append("use hgw_core::Duration;")
    out.append("use hgw_gateway::policy::*;")
    out.append("")
    out.append("use crate::profile::{DeviceProfile, Expected, Provenance};")
    out.append("")
    out.append("/// The full calibrated registry (34 devices, Table 1 order), as plain")
    out.append("/// `'static` data: reading it allocates nothing.")
    out.append(f"pub(crate) static DEVICES: [DeviceProfile; {len(TAGS)}] = [")
    for t in TAGS:
        ven, model, fw = VENDOR[t]
        g = GRANULARITY.get(t, 1)
        u1 = UDP1[t]; u2 = UDP2[t]; u3 = UDP3[t]
        # Configured timeout compensates for coarse-timer inflation (~G/2).
        # The expiry grid (ceil to granularity) inflates observed
        # lifetimes by ~g/2 on average; configure compensated values.
        # UDP-1's binary search lands ~g/2 above the configured value (the
        # expiry grid); the UDP-2/3 increasing-gap method refreshes at
        # varying phases and lands only ~3 s above it on coarse devices.
        # The probers stagger trial phases across the expiry grid; the
        # modified binary search tracks the *shortest observed expiration*,
        # so it converges near the low edge of the quantized-lifetime
        # distribution: fine-grained timers need no compensation, coarse
        # ones a small one.
        comp = 0 if g <= 1 else 2.5
        c1 = max(1, u1 - (UDP1_BIAS.get(t, 0) if g > 1 else 0))
        c2 = max(1, u2 - comp)
        c3 = max(1, u3 - comp)
        def dur(v):
            return (f"Duration::from_secs({int(v)})" if float(v).is_integer()
                    else f"Duration::from_millis({int(round(v*1000))})")
        tcp1_min = TCP1_MIN[t]
        tcp_secs = round(tcp1_min*60) if tcp1_min < 1440 else 7*24*3600
        if t in SEQUENTIAL:
            port = "PortAssignment::Sequential"
        elif t in QUARANTINE:
            port = "PortAssignment::Preserve { reuse_expired: false }"
        else:
            port = "PortAssignment::Preserve { reuse_expired: true }"
        if t in PASSTHROUGH:
            unk = "UnknownProtoPolicy::PassThrough"
        elif t in IPREWRITE_OK:
            unk = "UnknownProtoPolicy::IpRewrite { allow_inbound: true }"
        elif t in IPREWRITE_NOIN:
            unk = "UnknownProtoPolicy::IpRewrite { allow_inbound: false }"
        else:
            unk = "UnknownProtoPolicy::Drop"
        if t in DNS_TCP_ANSWER:
            dns_tcp = "DnsTcpMode::AnswerViaTcp"
        elif t in DNS_TCP_UDP:
            dns_tcp = "DnsTcpMode::AnswerViaUdp"
        elif t in DNS_TCP_BLACKHOLE:
            dns_tcp = "DnsTcpMode::AcceptNoAnswer"
        else:
            dns_tcp = "DnsTcpMode::Refuse"
        down, up, agg, buf = FWD[t]
        # Binding-setup cost scales inversely with forwarding horsepower
        # (reconstructed; §5 lists binding-creation rate as future work).
        cost_us = 400 if down < 10 else (150 if down < 50 else (60 if down < 100 else 25))
        agg_rs = "u64::MAX" if agg is None else f"{int(agg*1_000_000)}"
        ic = ICMP[t]
        overrides = SERVICE_OVERRIDES.get(t, [])
        ov_rs = ", ".join(f"({p}, Duration::from_secs({s}))" for p, s in overrides)
        # Filtering/mapping: sequential allocators behave symmetrically
        # (address+port dependent mapping), the rest are cone-style.
        if t in SEQUENTIAL:
            mapping = "EndpointScope::AddressAndPortDependent"
        else:
            mapping = "EndpointScope::EndpointIndependent"
        filtering = {"owrt":"EndpointScope::EndpointIndependent",
                     "to":"EndpointScope::EndpointIndependent",
                     "ap":"EndpointScope::EndpointIndependent",
                     "al":"EndpointScope::AddressDependent",
                     "we":"EndpointScope::AddressDependent",
                     "je":"EndpointScope::AddressDependent",
                     }.get(t, "EndpointScope::AddressAndPortDependent")
        ttl_dec = "false" if t in ("dl9","smc","dl10") else "true"
        rr = "true" if t in ("owrt",) else "false"
        hairpin = "true" if t in ("owrt","to","ap","bu1") else "false"
        out.append(f"""        DeviceProfile {{
            tag: "{t}",
            provenance: &Provenance {{ vendor: "{ven}", model: "{model}", firmware: "{fw}" }},
            policy: GatewayPolicy {{
                udp_timeout_solitary: {dur(c1)},
                udp_timeout_inbound: {dur(c2)},
                udp_timeout_bidirectional: {dur(c3)},
                udp_service_overrides: &[{ov_rs}],
                timer_granularity: Duration::from_secs({g}),
                tcp_timeout: Duration::from_secs({tcp_secs}),
                max_bindings: {TCP4[t]},
                port_assignment: {port},
                filtering: {filtering},
                mapping: {mapping},
                hairpinning: {hairpin},
                icmp: IcmpPolicy {{
                    tcp_kinds: {kindset(ic['tcp'])},
                    udp_kinds: {kindset(ic['udp'])},
                    icmp_query_host_unreach: {str(ic['ping_host']).lower()},
                    rewrite_embedded: {str(ic['rewrite']).lower()},
                    fix_embedded_ip_checksum: {str(ic['fix_ip']).lower()},
                    fix_embedded_l4_checksum: {str(ic['fix_l4']).lower()},
                    tcp_errors_as_rst: {str(ic['rst']).lower()},
                }},
                unknown_proto: {unk},
                binding_setup_cost: Duration::from_micros({cost_us}),
                forwarding: ForwardingModel {{
                    up_bps: {int(up*1_000_000)},
                    down_bps: {int(down*1_000_000)},
                    aggregate_bps: {agg_rs},
                    buffer_up: {buf} * 1024,
                    buffer_down: {buf} * 1024,
                    per_packet_overhead: Duration::from_micros(20),
                }},
                decrement_ttl: {ttl_dec},
                honor_record_route: {rr},
                dns_proxy: DnsProxyPolicy {{ udp: true, tcp: {dns_tcp} }},
            }},
            expected: Expected {{
                udp1_secs: {float(u1)},
                udp2_secs: {float(u2)},
                udp3_secs: {float(u3)},
                tcp1_mins: {float(tcp1_min)},
                max_bindings: {TCP4[t]},
            }},
        }},""")
    out.append("];")
    path = "crates/devices/src/data.rs"
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")
    # The committed file is exactly this output after rustfmt (the repo's
    # rustfmt.toml), so CI can regenerate it and byte-compare.
    subprocess.run(["rustfmt", "--edition", "2021", path], check=True)
    print(f"wrote {path}")

if __name__ == "__main__":
    check()
    emit()
