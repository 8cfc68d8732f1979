"""Each stage against its row of ``STAGES``: a run creates or replaces
exactly the stage's artifacts and the manifest, it opens exactly the
artifact files in its ``reads``, it opens no other file than the ones its
input keys (the keys of its ``keys`` that are in ``INPUT_KEYS``) name and
the files given to it as arguments, and its body reads exactly the config
keys in its ``keys``. The declared dependencies are the static ones and the
files a body opens are the dynamic ones ("Build systems à la carte",
Mokhov, Mitchell & Peyton Jones, ICFP 2018); a body that opened an
undeclared artifact would escape every staleness check."""

import builtins
import dataclasses
import hashlib
import io
import os
import shutil
from pathlib import Path

import pytest

from arousalkit import pipeline
from arousalkit.config import INPUT_KEYS, PipelineConfig
from arousalkit.pipeline import (OWNER, STAGES, PipelineError, run_agreement, run_build,
                                 run_evaluate, run_expand, run_ingest, run_neighbors, run_ratings,
                                 run_score, run_seeds, run_sheet, run_train)
from arousalkit.wordnet import dict_files
from conftest import READERS, demo_vocabulary


def work_file(config, name):
    return Path(config.work_dir) / name


#: stage -> the files of the work directory that ``run_demo`` gives it as arguments
ARGUMENTS = {"sheet": ("review_accept_all.csv",), "ratings": ("ratings_r1.csv", "ratings_r2.csv")}

#: each stage run with the arguments ``run_demo`` gives it, ``seeds`` also
#: with an extra seed list, and ``neighbors``
RUNS = {
    "ingest": run_ingest,
    "train": run_train,
    "seeds": run_seeds,
    "seeds+extra_seeds": lambda config: run_seeds(dataclasses.replace(
        config, extra_seeds=str(work_file(config, "extra_seeds.csv")))),
    "expand": run_expand,
    "sheet": lambda config: run_sheet(config, work_file(config, *ARGUMENTS["sheet"])),
    "ratings": lambda config: run_ratings(
        config, [work_file(config, name) for name in ARGUMENTS["ratings"]], labels=["r1", "r2"]),
    "agreement": run_agreement,
    "build": run_build,
    "score": run_score,
    "evaluate": run_evaluate,
    "neighbors": lambda config: run_neighbors(config, "panic"),
}

#: stage -> (the artifact files it opens, the files it creates or replaces)
CONTRACTS = {stage: (spec.reads, (*spec.artifacts, "manifest.json"))
             for stage, spec in STAGES.items()}
CONTRACTS["seeds+extra_seeds"] = CONTRACTS["seeds"]
CONTRACTS["neighbors"] = (("embedding.bin",), ())


def outside_files(config, stage: str) -> set[Path]:
    """The absolute paths of the files that the input keys of ``stage`` name
    under ``config``, and of the files given to it as arguments."""
    files = [work_file(config, name) for name in ARGUMENTS.get(stage, ())]
    for key in set(STAGES[stage].keys if stage in STAGES else ()) & set(INPUT_KEYS):
        value = getattr(config, key)
        if key == "wordnet_dir":
            files += [path for pair in dict_files(value).values() for path in pair]
        elif value is not None:
            files.append(value)
    return {Path(os.path.abspath(path)) for path in files}


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
    assert artifacts == set(reads)
    if stage == "seeds+extra_seeds":  # the list that RUNS hands to seeds
        config.extra_seeds = str(work_file(config, "extra_seeds.csv"))
    assert {path for path in opened if path.parent != work or path.name not in
            {*OWNER, "manifest.json"}} == outside_files(config, stage.split("+")[0])
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


def test_stages_are_listed_in_build_order():
    # one writer per file, or OWNER would keep the last without a word; each
    # read written by an earlier row, so no row reads its own artifacts and
    # stage_keys ends
    assert len(OWNER) == sum(len(spec.artifacts) for spec in STAGES.values())
    written = set()
    for stage, spec in STAGES.items():
        assert set(spec.reads) <= written, stage
        written |= set(spec.artifacts)


def test_no_stage_requires_an_export(reader_demo, tmp_path):
    # vocab.csv, embedding.txt and scores.csv are written for people; the
    # stages that come after their writers run without them
    work = tmp_path / "work"
    shutil.copytree(reader_demo, work)
    exports = ("vocab.csv", "embedding.txt", "scores.csv")
    for name in exports:
        (work / name).unlink()
    config = PipelineConfig.load(work / "inputs" / "config.json")
    config.work_dir = str(work)
    for stage in ("seeds", "expand", "sheet"):
        RUNS[stage](config)
    assert RUNS["neighbors"](config) == RUNS["neighbors"](
        dataclasses.replace(config, work_dir=str(reader_demo)))
    RUNS["evaluate"](config)
    for path in work.rglob("*"):
        if path.is_file():
            assert path.read_bytes() == (reader_demo / path.relative_to(work)).read_bytes(), path
    assert not any((work / name).exists() for name in exports)


@pytest.mark.parametrize("stage, key", [("ingest", "corpus"), ("seeds", "general_lexicon"),
                                        ("seeds", "extra_seeds"), ("expand", "wordnet_dir"),
                                        ("score", "general_lexicon")])
def test_empty_input_path_is_refused(reader_demo, tmp_path, monkeypatch, stage, key):
    # an empty path would name the working directory, here a WordNet
    # directory, or the file ''
    work = tmp_path / "work"
    shutil.copytree(reader_demo, work)
    monkeypatch.chdir(work / "inputs" / "wordnet")
    config = PipelineConfig.load(work / "inputs" / "config.json")
    config.work_dir = str(work)
    setattr(config, key, "")
    manifest = (work / "manifest.json").read_bytes()
    with pytest.raises(PipelineError, match=f"the '{stage}' stage needs a path in config "
                                            f"key '{key}'"):
        RUNS[stage](config)
    assert (work / "manifest.json").read_bytes() == manifest
