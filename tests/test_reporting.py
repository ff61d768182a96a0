import json
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cveminer.classifier import ValidationReport
from cveminer.errors import ClusterMismatch, EmptyProfile
from cveminer.projection import ProjectionResult, TsneParams
from cveminer.reporting import (growth_csv, representatives_table, review_export,
                                scatter_svg, term_weights, topic_table,
                                validation_summary, wordcloud_grid_svg)
from cveminer.topics import NgramEntry, NgramProfile, TopicSummary

T0_KEYWORDS = ["access", "local", "user", "privileged", "privileged user",
               "firmware", "privilege", "escalation", "escalation privilege",
               "bios", "service", "denial service", "denial", "local access",
               "user enable"]
T0_LABEL = "Physical Access Exploitation of Firmware and Hardware Control"


def profile_from(keywords, cluster=0):
    entries = [NgramEntry(g, len(g.split()), 100 - i) for i, g in enumerate(keywords)]
    return NgramProfile(cluster=cluster, entries=entries, r=15)


def summary_from(label, keywords, cluster=0):
    return TopicSummary(cluster=cluster, label=label, keywords_used=tuple(keywords),
                        model_id="m")


def test_topic_table_renders_row():
    md = topic_table([profile_from(T0_KEYWORDS)], [summary_from(T0_LABEL, T0_KEYWORDS)])
    assert "access, local, user, privileged" in md
    assert T0_LABEL in md
    assert md.splitlines()[0].startswith("| Topic |")


def test_topic_table_empty_and_cardinality():
    assert len(topic_table([], []).splitlines()) == 2  # header only
    profiles = [profile_from([f"kw{i}"], cluster=i) for i in range(5)]
    summaries = [summary_from(f"label {i}", [f"kw{i}"], cluster=i) for i in range(5)]
    assert len(topic_table(profiles, summaries).splitlines()) == 7


def test_topic_table_mismatch():
    with pytest.raises(ClusterMismatch):
        topic_table([profile_from(["a"], cluster=0)], [summary_from("l", ["a"], cluster=1)])


def test_representatives_table_column_layout():
    reps = {0: ["CVE-2021-0091", "CVE-2021-0154"], 1: ["CVE-2021-1892"]}
    md = representatives_table(reps)
    lines = md.splitlines()
    assert lines[0] == "| Rank | Topic 0 | Topic 1 |"
    assert lines[2] == "| 1 | CVE-2021-0091 | CVE-2021-1892 |"
    assert lines[3] == "| 2 | CVE-2021-0154 |  |"


def test_representatives_table_ragged_and_empty():
    reps = {0: [f"CVE-2021-{1000+i}" for i in range(3)],
            1: [f"CVE-2022-{1000+i}" for i in range(10)]}
    lines = representatives_table(reps).splitlines()
    assert len(lines) == 2 + 10
    assert representatives_table({}).splitlines()[0] == "| Rank |"


def test_term_weights_normalization():
    profile = NgramProfile(cluster=0, r=3, entries=[
        NgramEntry("a", 1, 10), NgramEntry("b", 1, 5), NgramEntry("c", 1, 1)])
    doc = json.loads(term_weights(profile))
    assert doc == [{"term": "a", "weight": 1.0}, {"term": "b", "weight": 0.5},
                   {"term": "c", "weight": 0.1}]


def test_term_weights_single_and_empty():
    single = NgramProfile(cluster=0, r=1, entries=[NgramEntry("only", 1, 7)])
    assert json.loads(term_weights(single)) == [{"term": "only", "weight": 1.0}]
    with pytest.raises(EmptyProfile):
        term_weights(NgramProfile(cluster=0, r=1, entries=[]))


def test_growth_csv():
    assert growth_csv({2022: 3, 2021: 5}) == "year,count\n2021,5\n2022,3\n"


def _projection(n, seed=0):
    rng = np.random.default_rng(seed)
    ids = [f"CVE-2021-{1000+i}" for i in range(n)]
    return ProjectionResult(ids=ids, coords=rng.normal(size=(n, 2)),
                            params=TsneParams(), seed=seed, final_kl=0.0)


def test_scatter_svg_structure():
    proj = _projection(3)
    clusters = {proj.ids[0]: 0, proj.ids[1]: 0, proj.ids[2]: 1}
    svg = scatter_svg(proj, clusters, legend={0: "one", 1: "two"})
    root = ET.fromstring(svg)  # well-formed XML
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    texts = [el for el in root.iter() if el.tag.endswith("text")]
    assert len(circles) == 3
    assert len(texts) == 2
    min_x, min_y, width, height = map(float, root.attrib["viewBox"].split())
    for circle in circles:
        assert min_x <= float(circle.attrib["cx"]) <= min_x + width
        assert min_y <= float(circle.attrib["cy"]) <= min_y + height
    assert scatter_svg(proj, clusters, legend={0: "one", 1: "two"}) == svg


def test_scatter_svg_large_budget():
    proj = _projection(1742, seed=1)
    clusters = {cve_id: i % 5 for i, cve_id in enumerate(proj.ids)}
    start = time.perf_counter()
    svg = scatter_svg(proj, clusters)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert len(svg) < 2 * 1024 * 1024
    ET.fromstring(svg)


def test_wordcloud_grid_svg():
    profile = NgramProfile(cluster=0, r=2, entries=[
        NgramEntry("alpha", 1, 4), NgramEntry("beta gamma", 2, 2)])
    svg = wordcloud_grid_svg(profile)
    root = ET.fromstring(svg)
    assert len([el for el in root.iter() if el.tag.endswith("text")]) == 2
    with pytest.raises(EmptyProfile):
        wordcloud_grid_svg(NgramProfile(cluster=0, r=1, entries=[]))


def test_validation_summary_sorted_desc():
    a = ValidationReport.from_counts(tp=90, tn=90, fp=10, fn=10)   # 0.9
    b = ValidationReport.from_counts(tp=80, tn=80, fp=20, fn=20)   # 0.8
    md, csv = validation_summary(None, [("small", b), ("big", a)])
    md_rows = md.splitlines()[2:]
    assert md_rows[0].startswith("| big | 0.9 |")
    assert md_rows[1].startswith("| small | 0.8 |")
    assert csv.splitlines()[0] == "model,accuracy,tp,tn,fp,fn,n"
    assert csv.splitlines()[1].startswith("big,0.9,")


def test_validation_summary_single_headline():
    report = ValidationReport.from_counts(tp=100, tn=99, fp=1, fn=0)
    md, csv = validation_summary(report, [("llama-3.3-70b", report)])
    assert "| llama-3.3-70b | 0.995 |" in md
    assert "llama-3.3-70b,0.995,100,99,1,0,200" in csv


def test_validation_summary_empty():
    md, csv = validation_summary(None, [])
    assert len(md.splitlines()) == 2
    assert csv == "model,accuracy,tp,tn,fp,fn,n\n"


def test_review_export_schema():
    doc = json.loads(review_export(
        failures=[("CVE-2021-0001", "unparseable label: 'maybe'"),
                  ("CVE-2021-0002", "provider error")],
        blocked_labels=[(3, "Intel flaw", "intel")]))
    assert len(doc) == 3
    assert doc[0] == {"id": "CVE-2021-0001", "stage": "classify",
                      "reason": "unparseable label: 'maybe'",
                      "raw": "unparseable label: 'maybe'"}
    assert doc[2] == {"id": "cluster-3", "stage": "summarize",
                      "reason": "blocked term", "raw": "Intel flaw"}
    assert all(set(entry) == {"id", "stage", "reason", "raw"} for entry in doc)


def test_review_export_empty():
    assert json.loads(review_export([], [])) == []
