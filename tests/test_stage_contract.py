"""Each stage against its row of ``STAGES``: a run creates or replaces
exactly the stage's artifacts and the manifest, it opens the artifacts of
exactly the stages in its ``reads``, it opens no other file than the
outside inputs of its row of ``INPUTS``, and its body reads exactly the
config keys in its ``keys``. The declared dependencies are the
static ones and the files a body opens are the dynamic ones ("Build systems
à la carte", Mokhov, Mitchell & Peyton Jones, ICFP 2018); a body that opened
an undeclared artifact would escape every staleness check."""

import builtins
import dataclasses
import hashlib
import io
import os
import shutil
from pathlib import Path

import pytest

from arousalkit import pipeline
from arousalkit.config import PipelineConfig
from arousalkit.pipeline import (STAGES, run_agreement, run_build, run_evaluate, run_expand,
                                 run_ingest, run_neighbors, run_ratings, run_score, run_seeds,
                                 run_sheet, run_train)
from conftest import READERS, demo_vocabulary

#: artifact name -> the stage that writes it
OWNER = {name: stage for stage, spec in STAGES.items() for name in spec.artifacts}


def work_file(config, name):
    return Path(config.work_dir) / name


#: each stage run with the arguments ``run_demo`` gives it, ``seeds`` also
#: with an extra seed list, and ``neighbors``
RUNS = {
    "ingest": run_ingest,
    "train": run_train,
    "seeds": run_seeds,
    "seeds+extra_seeds": lambda config: run_seeds(dataclasses.replace(
        config, extra_seeds=str(work_file(config, "extra_seeds.csv")))),
    "expand": run_expand,
    "sheet": lambda config: run_sheet(config, review=work_file(config, "review_accept_all.csv")),
    "ratings": lambda config: run_ratings(
        config, [work_file(config, "ratings_r1.csv"), work_file(config, "ratings_r2.csv")],
        labels=["r1", "r2"]),
    "agreement": run_agreement,
    "build": run_build,
    "score": run_score,
    "evaluate": run_evaluate,
    "neighbors": lambda config: run_neighbors(config, "panic"),
}

#: stage -> (the stages whose artifacts it opens, the files it creates or replaces)
CONTRACTS = {stage: (spec.reads, (*spec.artifacts, "manifest.json"))
             for stage, spec in STAGES.items()}
CONTRACTS["seeds+extra_seeds"] = CONTRACTS["seeds"]
CONTRACTS["neighbors"] = (("train",), ())

#: stage -> the files it opens that are neither artifacts nor the manifest;
#: a stage not named here opens none.
INPUTS = {
    "ingest": lambda config: [config.corpus],
    "seeds": lambda config: [config.general_lexicon],
    "seeds+extra_seeds":
        lambda config: [config.general_lexicon, work_file(config, "extra_seeds.csv")],
    "expand": lambda config: [Path(config.wordnet_dir) / f"{kind}.{pos}"
                              for kind in ("data", "index")
                              for pos in ("adj", "adv", "noun", "verb")],
    "sheet": lambda config: [work_file(config, "review_accept_all.csv")],
    "ratings": lambda config: [work_file(config, "ratings_r1.csv"),
                               work_file(config, "ratings_r2.csv")],
    "score": lambda config: [config.general_lexicon],
}


def snapshot(work: Path) -> dict:
    """path -> (inode, mtime, size) of every file under ``work``. An
    ``atomic_open`` rename gives a new inode even for unchanged bytes."""
    return {path: (stat.st_ino, stat.st_mtime_ns, stat.st_size)
            for path in work.rglob("*") if path.is_file() for stat in [path.stat()]}


def recording(opened: list, open_):
    """``open_``, noting the absolute path of every file opened for reading."""
    def wrapper(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
            opened.append(Path(os.path.abspath(file)))
        return open_(file, mode, *args, **kwargs)
    return wrapper


@pytest.mark.parametrize("stage", sorted(CONTRACTS))
def test_stage_reads_and_writes_what_its_row_declares(reader_demo, tmp_path, stage):
    work = tmp_path / "work"
    shutil.copytree(reader_demo, work)
    config = PipelineConfig.load(work / "inputs" / "config.json")
    config.work_dir = str(work)
    reads, writes = CONTRACTS[stage]
    before, opened = snapshot(work), []
    with pytest.MonkeyPatch.context() as patch:
        # text_lines and read_records call open; Path.open calls io.open
        patch.setattr(builtins, "open", recording(opened, builtins.open))
        patch.setattr(io, "open", recording(opened, io.open))
        RUNS[stage](config)
    after = snapshot(work)
    changed = {str(path.relative_to(work)) for path in before.keys() | after.keys()
               if before.get(path) != after.get(path)}
    assert changed == set(writes)
    artifacts = {path.name for path in opened if path.parent == work and path.name in OWNER}
    assert {OWNER[name] for name in artifacts} == set(reads), sorted(artifacts)
    inputs = {Path(os.path.abspath(path)) for path in INPUTS.get(stage, lambda config: [])(config)}
    assert {path for path in opened
            if path.parent != work or path.name not in {*OWNER, "manifest.json"}} == inputs
    # the fuzz run of test_readers covers every artifact a stage opens
    assert artifacts <= set(READERS)


def recording_config(config, read: set, prefix: str = ""):
    """A copy of the dataclass ``config`` that adds the dotted name of each
    field it is asked for to ``read``; a dataclass field is such a copy too.
    Making a copy, as ``dataclasses.replace`` does, empties ``read``, so that
    only the reads after the last copy count."""
    fields = [field.name for field in dataclasses.fields(config)]

    class Recording(type(config)):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            read.clear()

        def __getattribute__(self, name):
            value = object.__getattribute__(self, name)
            if name in fields and not dataclasses.is_dataclass(value):
                read.add(prefix + name)
            return value

    values = {name: getattr(config, name) for name in fields}
    return Recording(**{name: recording_config(value, read, f"{prefix}{name}.")
                        if dataclasses.is_dataclass(value) else value
                        for name, value in values.items()})


def unrecorded(function, read: set):
    """``function``, with the names it adds to ``read`` taken out again."""
    def wrapper(*args, **kwargs):
        before = set(read)
        try:
            return function(*args, **kwargs)
        finally:
            read.intersection_update(before)
    return wrapper


@pytest.mark.parametrize("stage", sorted(set(RUNS) - {"neighbors"}))
def test_stage_body_reads_the_keys_its_row_declares(reader_demo, tmp_path, stage):
    # the manifest check and record read the slices of other stages too;
    # only the reads of the body count
    work = tmp_path / "work"
    shutil.copytree(reader_demo, work)
    config = PipelineConfig.load(work / "inputs" / "config.json")
    config.work_dir = str(work)
    read: set = set()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "hash_config_slice",
                      unrecorded(pipeline.hash_config_slice, read))
        RUNS[stage](recording_config(config, read))
    assert read - {"work_dir"} == set(STAGES[stage.split("+")[0]].keys)


def test_vocab_csv_is_the_vocabulary_the_stages_build(reader_demo, tmp_path):
    demo_vocabulary(reader_demo).save(tmp_path / "vocab.csv")
    assert (tmp_path / "vocab.csv").read_bytes() == (reader_demo / "vocab.csv").read_bytes()


def test_no_stage_reads_vocab_csv(reader_demo, tmp_path):
    # vocab.csv is an export: train, seeds and sheet take the vocabulary from tokens.bin
    digests = []
    for name in ("untouched", "edited"):
        work = tmp_path / name
        shutil.copytree(reader_demo, work)
        if name == "edited":
            lines = (work / "vocab.csv").read_bytes().splitlines(keepends=True)
            del lines[2]
            lines[1] = bytes([lines[1][0] ^ 0xFF]) + lines[1][1:]
            (work / "vocab.csv").write_bytes(b"".join(lines))
        config = PipelineConfig.load(work / "inputs" / "config.json")
        config.work_dir = str(work)
        for stage in ("train", "seeds", "sheet"):
            RUNS[stage](config)
        digests.append({artifact: hashlib.sha256((work / artifact).read_bytes()).hexdigest()
                        for stage in ("train", "seeds", "sheet")
                        for artifact in (*STAGES[stage].artifacts, "manifest.json")})
    assert digests[0] == digests[1]
