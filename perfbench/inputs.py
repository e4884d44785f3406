"""Seeded inputs for the benchmark's workloads, built with xmlad itself.

Runs as a child process before anything is timed, so that neither input
generation nor model training shows in a workload's set-up time or in its
peak memory:

    python3 perfbench/inputs.py WORKLOAD SEED WORKDIR SIZE

Every document comes from ``synth`` on the 30-element demo schema (121
flattened columns) with the demo generative parameters of seed 0; the run
seed picks the documents and the injected attacks.  The NaN documents of
``detect`` are the same for every seed.
"""

import json
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from xmlad import adifa, extract, flatten, inject, model_io, synth
from xmlad.schema import parse_xsd

SIZES = {
    "full": {"fit": 2000, "heldout": 400, "train": 2000, "stream": 1000,
             "evaluate": 2000, "probes": 5},
    "smoke": {"fit": 150, "heldout": 60, "train": 150, "stream": 200,
              "evaluate": 200, "probes": 1},
}
ANOMALY_INDEX = 0.05
ANOMALOUS_SHARE = 0.5
BLOCK = 100  # detect documents per round; exactly one of them holds a NaN
NAN_POSITION = 50
NAN_CORPUS_SEED = -1
DISTINCT_LIMIT = 32
# evaluate's cost depends on its corpus: np.exp is many times slower where
# the kernel underflows, and one corpus of 2,000 rows took 20% longer than
# another.  Rounds cycle over several corpora so that a run averages over
# them; corpus k is the one seed S + k * SUB_SEED_STRIDE gives as corpus 0.
EVAL_CORPORA = 3
SUB_SEED_STRIDE = 1_000_000


def demo_schema():
    xsd = synth.demo_schema_xsd()
    return xsd, parse_xsd(xsd)


def normal_docs(schema, m, corpus_seed):
    params = synth.demo_params(schema, seed=0)
    return synth.generate_normal_corpus(schema, params, m, seed=corpus_seed)


def labelled_docs(schema, m, corpus_seed, seed):
    """m documents, half of them injected over all five attack classes."""
    spec = inject.InjectionSpec(anomaly_index=ANOMALY_INDEX, seed=seed)
    docs, labels, _ = inject.make_anomalous_corpus(
        normal_docs(schema, m, corpus_seed), schema, spec,
        fraction_anomalous=ANOMALOUS_SHARE)
    return docs, list(labels)


def with_nan(doc, element):
    root = ET.fromstring(doc)
    root.find(f"Amounts/{element}").text = "NaN"
    return ET.tostring(root, encoding="unicode")


def makeup(rows, labels=None):
    distinct = [len(np.unique(rows[:, j])) for j in range(rows.shape[1])]
    return {"documents": int(rows.shape[0]),
            "anomalous": sum(1 for v in labels or () if v == "anomalous"),
            "anomaly_index": ANOMALY_INDEX,
            "attack_classes": [c.value for c in inject.ALL_CLASSES],
            "columns": int(rows.shape[1]),
            "distinct_values_sum": int(sum(distinct)),
            f"columns_le{DISTINCT_LIMIT}_distinct":
                sum(1 for d in distinct if d <= DISTINCT_LIMIT)}


def flat(docs, schema, labels=None):
    fm = extract.build_feature_matrix(docs, schema)
    dictionary = flatten.build_dictionary(fm, schema)
    return flatten.flatten_matrix(fm, schema, dictionary, labels=labels), \
        dictionary


def prepare_fit(work, seed, size, xsd, schema):
    """A normal corpus on disk for the CLI pipeline, and a labelled held-out
    set that the check phase scores with the trained model."""
    (work / "schema.xsd").write_text(xsd, encoding="utf-8")
    docs = normal_docs(schema, size["fit"], 4 * seed)
    corpus = work / "corpus"
    corpus.mkdir()
    for i, doc in enumerate(docs):
        (corpus / f"doc{i:05d}.xml").write_text(doc, encoding="utf-8")
    held, labels = labelled_docs(schema, size["heldout"], 4 * seed + 2, seed)
    (work / "heldout.json").write_text(
        json.dumps({"docs": held, "labels": labels}), encoding="utf-8")
    return makeup(flat(docs, schema)[0].rows)


def prepare_detect(work, seed, size, xsd, schema):
    """A model trained on a normal corpus, and the stream to screen."""
    data, dictionary = flat(normal_docs(schema, size["train"], 4 * seed),
                            schema)
    model = adifa.train(data, psi="gm")
    schema.save(work / "schema.xadschema")
    dictionary.save(work / "dict.xaddict")
    model_io.save_model(model, work / "model.xadmodel")

    blocks = size["stream"] // BLOCK
    docs, labels = labelled_docs(schema, size["stream"] - blocks,
                                 4 * seed + 1, seed)
    nan = [False] * len(docs)
    for b, base in enumerate(normal_docs(schema, blocks, NAN_CORPUS_SEED)):
        at = b * BLOCK + NAN_POSITION
        docs.insert(at, with_nan(base, f"Amount{b % 10}"))
        labels.insert(at, "anomalous")
        nan.insert(at, True)
    (work / "stream.json").write_text(
        json.dumps({"docs": docs, "labels": labels, "nan": nan}),
        encoding="utf-8")
    facts = makeup(data.rows)
    facts["stream"] = {"documents": len(docs),
                       "anomalous": labels.count("anomalous"),
                       "nan_documents": blocks}
    return facts


def prepare_evaluate(work, seed, size, xsd, schema):
    """Labelled CSVs, half of each injected, for ``xmlad evaluate``."""
    facts = []
    for k in range(EVAL_CORPORA):
        sub = seed + k * SUB_SEED_STRIDE
        docs, labels = labelled_docs(schema, size["evaluate"], 4 * sub + 3,
                                     sub)
        data, _ = flat(docs, schema, labels=labels)
        data.to_csv(work / f"data{k}.csv")
        facts.append(makeup(data.rows, labels))
    return {"corpora": facts}


PREPARE = {"fit": prepare_fit, "detect": prepare_detect,
           "evaluate": prepare_evaluate}


def main(argv):
    workload, seed, work, size = argv
    work = Path(work)
    xsd, schema = demo_schema()
    facts = PREPARE[workload](work, int(seed), SIZES[size], xsd, schema)
    (work / "inputs.json").write_text(json.dumps(facts), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
