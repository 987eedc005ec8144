"""Experiment runner: stage graph, idempotence, config handling."""

import pytest

from dmt.autodiff import RngState
from dmt.corpus import LanguageTag, load_parallel, read_lines, write_lines
from dmt.errors import ConfigError, ExperimentError
from dmt.experiment import ExperimentConfig, _Runner, aggregate_report, run_experiment
from dmt.pipeline import build_context, encode_corpus
from dmt.training import TrainConfig

STAGES = ["prep", "bpe", "vocab", "binarize", "train", "decode", "score"]

class TestConfigParsing:
    def test_from_pairs_types(self):
        cfg = ExperimentConfig.from_pairs({
            "name": "x", "src_lang": "kn", "tgt_lang": "ml",
            "bpe_merges": "123", "joint_bpe": "True", "beam": "3",
            "length_penalty": "0.5", "train.epochs": "7", "model.d_model": "64",
        })
        assert cfg.bpe_merges == 123
        assert cfg.joint_bpe is True
        assert cfg.length_penalty == 0.5
        assert cfg.train_overrides == {"epochs": "7"}
        assert cfg.model_overrides == {"d_model": "64"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_pairs({"nonsense": "1"})

    def test_file_with_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nname=foo\n\nsrc_lang=kn\n", encoding="utf-8")
        cfg = ExperimentConfig.from_file(p)
        assert cfg.name == "foo"

    def test_flag_overrides_win(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("name=foo\nseed=1\n", encoding="utf-8")
        cfg = ExperimentConfig.from_file(p, overrides={"seed": "9"})
        assert cfg.seed == 9

    def test_train_config_resolution(self):
        cfg = ExperimentConfig.from_pairs({
            "name": "x", "arch": "lstm", "train.epochs": "3",
        })
        tc = cfg.train_config()
        assert isinstance(tc, TrainConfig)
        assert tc.arch == "lstm"
        assert tc.epochs == 3             # override applied
        assert tc.learning_rate == 0.005  # from the lstm preset
        assert tc.max_tokens == 12000

    def test_bad_train_key(self):
        cfg = ExperimentConfig.from_pairs({"name": "x", "train.bogus": "1"})
        with pytest.raises(ConfigError, match="bogus"):
            cfg.train_config()

    def test_removed_train_key_rejected(self):
        cfg = ExperimentConfig.from_pairs({"name": "x", "train.adam_beta1": "0.9"})
        with pytest.raises(ConfigError, match="train.adam_beta1"):
            cfg.train_config()

    def test_snapshot_bytes_unchanged(self):
        """config.txt keeps its bytes, so existing run directories rerun
        with no stage work."""
        cfg = ExperimentConfig.from_pairs({
            "name": "fixed", "src_lang": "kn", "tgt_lang": "sa",
            "train_src": "d/train.kn", "joint_bpe": "true", "length_penalty": "0.6",
            "beam": "4", "train.epochs": "7", "train.learning_rate": "0.003",
            "model.d_model": "64", "model.n_heads": "2"})
        assert cfg.snapshot() == (
            "name=fixed\nsrc_lang=kn\ntgt_lang=sa\ntrain_src=d/train.kn\n"
            "train_tgt=\ndev_src=\ndev_tgt=\ntest_src=\ntest_tgt=\nmono=\n"
            "bpe_merges=8000\nmin_count=1\njoint_bpe=True\ntransliterate=True\n"
            "keep_joiners=False\narch=transformer\npreset=\nbeam=4\nmax_len=0\n"
            "length_penalty=0.6\nbacktranslation=False\nupsample_real=1\n"
            "detranslit_score=True\nseed=1\ntrain.epochs=7\n"
            "train.learning_rate=0.003\nmodel.d_model=64\nmodel.n_heads=2\n")

    def test_validation_missing_paths(self, tmp_path):
        cfg = ExperimentConfig.from_pairs({
            "name": "x", "src_lang": "kn", "tgt_lang": "ml",
            "train_src": str(tmp_path / "missing.kn"),
        })
        with pytest.raises(ConfigError, match="no such file|required"):
            cfg.validate()

    def test_snapshot_round_trip(self):
        cfg = ExperimentConfig.from_pairs({
            "name": "x", "src_lang": "kn", "tgt_lang": "ml",
            "train.epochs": "7", "model.d_model": "64", "beam": "2",
        })
        lines = dict(ln.split("=", 1) for ln in cfg.snapshot().splitlines())
        again = ExperimentConfig.from_pairs(lines)
        assert again == cfg


class TestRunExperiment:
    def test_artifacts_and_score(self, copy_experiment):
        run_dir = copy_experiment["run_dir"]
        for rel in ("config.txt", "log.txt", "best.dmt", "report.tsv",
                    "prep/train.src", "bpe/src.model", "vocab/tgt.vocab",
                    "bin/train.src.ids", "outputs/test.hyp",
                    "outputs/test.score.tsv", "results.tsv"):
            assert (run_dir / rel).exists(), rel
        results = (run_dir / "results.tsv").read_text().splitlines()
        assert results[0] == "system\tpair\tmean_sentence_bleu"
        system, pair, score = results[1].split("\t")
        assert (system, pair) == ("transformer", "kn-ml")
        assert float(score) > 0.5

    def test_stage_order_in_log(self, copy_experiment):
        log = (copy_experiment["run_dir"] / "log.txt").read_text()
        order = [stage for stage in STAGES if f"stage {stage}: running" in log]
        assert order == STAGES

    def test_rerun_performs_no_stage_work(self, copy_experiment):
        run_dir = copy_experiment["run_dir"]
        best_mtime = (run_dir / "best.dmt").stat().st_mtime_ns
        results_mtime = (run_dir / "results.tsv").stat().st_mtime_ns
        run_experiment(copy_experiment["config"],
                       runs_dir=copy_experiment["runs_dir"])
        assert (run_dir / "best.dmt").stat().st_mtime_ns == best_mtime
        assert (run_dir / "results.tsv").stat().st_mtime_ns == results_mtime
        assert "nothing to do" in (run_dir / "log.txt").read_text()

    def test_lock_blocks_concurrent_run(self, copy_experiment):
        run_dir = copy_experiment["run_dir"]
        lock = run_dir / ".lock"
        lock.write_text("held\n")
        try:
            with pytest.raises(ExperimentError, match="locked"):
                run_experiment(copy_experiment["config"],
                               runs_dir=copy_experiment["runs_dir"])
        finally:
            lock.unlink()

    def test_config_change_rejected(self, copy_experiment):
        import dataclasses
        changed = dataclasses.replace(copy_experiment["config"], seed=999)
        with pytest.raises(ExperimentError, match="different configuration"):
            run_experiment(changed, runs_dir=copy_experiment["runs_dir"])

    def test_misaligned_sides_fail_at_prep(self, tmp_path):
        (tmp_path / "t.kn").write_text("a b c d\ne f g h\n", encoding="utf-8")
        (tmp_path / "t.ml").write_text("a b c d\n", encoding="utf-8")
        (tmp_path / "d.kn").write_text("a b c d\n", encoding="utf-8")
        (tmp_path / "d.ml").write_text("a b c d\n", encoding="utf-8")
        cfg = ExperimentConfig.from_pairs({
            "name": "skew", "src_lang": "kn", "tgt_lang": "ml",
            "train_src": str(tmp_path / "t.kn"), "train_tgt": str(tmp_path / "t.ml"),
            "dev_src": str(tmp_path / "d.kn"), "dev_tgt": str(tmp_path / "d.ml"),
        })
        with pytest.raises(ExperimentError, match="misaligned"):
            run_experiment(cfg, runs_dir=tmp_path / "runs")

    def test_prep_splits_lines_on_lf_only(self, tmp_path):
        # \f inside a line must not shift one side against the other
        (tmp_path / "t.kn").write_text("a\fb\nc d\ne f\ng h\n", encoding="utf-8")
        (tmp_path / "t.ml").write_text("A B\nC D\nE\fF\nG H\n", encoding="utf-8")
        cfg = ExperimentConfig.from_pairs({
            "name": "ff", "src_lang": "kn", "tgt_lang": "ml",
            "train_src": str(tmp_path / "t.kn"), "train_tgt": str(tmp_path / "t.ml"),
            "dev_src": str(tmp_path / "t.kn"), "dev_tgt": str(tmp_path / "t.ml"),
        })
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        _Runner(cfg, run_dir).do_prep()
        pairs = list(zip(read_lines(run_dir / "prep" / "train.src"),
                         read_lines(run_dir / "prep" / "train.tgt")))
        assert pairs == [("a b", "A B"), ("c d", "C D"), ("e f", "E F"),
                         ("g h", "G H")]

    def test_prep_rejects_pairs_blank_on_one_side(self, tmp_path):
        (tmp_path / "t.kn").write_text("a b\n\nc d\ne f\n", encoding="utf-8")
        (tmp_path / "t.ml").write_text("A B\nX Y\n\nE F\n", encoding="utf-8")
        cfg = ExperimentConfig.from_pairs({
            "name": "blank", "src_lang": "kn", "tgt_lang": "ml",
            "train_src": str(tmp_path / "t.kn"), "train_tgt": str(tmp_path / "t.ml"),
            "dev_src": str(tmp_path / "t.kn"), "dev_tgt": str(tmp_path / "t.ml"),
        })
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        _Runner(cfg, run_dir).do_prep()
        for name in ("train", "dev"):
            assert read_lines(run_dir / "prep" / f"{name}.src") == ["a b", "e f"]
            assert read_lines(run_dir / "prep" / f"{name}.tgt") == ["A B", "E F"]
        log = (run_dir / "log.txt").read_text(encoding="utf-8")
        assert "prep: train: 2 pairs rejected" in log
        assert "prep: dev: 2 pairs rejected" in log

    @pytest.mark.parametrize("bad", [
        {"train_src": "nope.kn"}, {"beam": "abc"}, {"beam": "0"},
        {"train.epochs": "0"}, {"train.epochs": "abc"},
        {"arch": "conv", "model.dim": "abc"}, {"model.bogus": "1"}, {"arch": "foo"},
    ], ids=["missing-file", "beam-abc", "beam-0", "epochs-0", "epochs-abc",
            "model-dim-abc", "model-bogus", "arch-foo"])
    def test_validation_before_any_stage(self, tmp_path, bad):
        for name in ("c.kn", "c.ml"):
            (tmp_path / name).write_text("a b\n", encoding="utf-8")
        pairs = {"name": "ghost", "src_lang": "kn", "tgt_lang": "ml",
                 "train_src": "c.kn", "train_tgt": "c.ml",
                 "dev_src": "c.kn", "dev_tgt": "c.ml", **bad}
        for key in ("train_src", "train_tgt", "dev_src", "dev_tgt"):
            pairs[key] = str(tmp_path / pairs[key])
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig.from_pairs(pairs),
                           runs_dir=tmp_path / "runs")
        assert not (tmp_path / "runs" / "ghost").exists()


class TestSubwordStages:
    """The bpe, vocab and binarize stages persist what build_context +
    encode_corpus build from the same load_parallel corpora."""

    WORDS = [("ab", "XY"), ("abc", "XYZ"), ("cab", "ZXY"), ("bca", "YZX"),
             ("ಕನ್ನಡ", "മലയാളം"), ("ಭಾಷೆ", "ഭാഷ")]

    def write_split(self, root, name, rng, n):
        src, tgt = [], []
        for _ in range(n):
            picks = [self.WORDS[int(rng.uniform((), 0, len(self.WORDS)))]
                     for _ in range(int(rng.uniform((), 2, 6)))]
            src.append(" ".join(s for s, _ in picks))
            tgt.append(" ".join(t for _, t in picks))
        # one pair blank on one side, one blank on both
        src[1], tgt[2:4] = "", ["", ""]
        for side, lines in (("kn", src), ("ml", tgt)):
            (root / f"{name}.{side}").write_text(
                "".join(ln + "\n" for ln in lines), encoding="utf-8")

    @pytest.mark.parametrize("joint", [False, True])
    def test_stage_outputs_equal_build_context(self, tmp_path, joint):
        rng = RngState(7)
        for name, n in (("train", 40), ("dev", 8)):
            self.write_split(tmp_path, name, rng, n)
        cfg = ExperimentConfig.from_pairs({
            "name": "ref", "src_lang": "kn", "tgt_lang": "ml",
            "train_src": str(tmp_path / "train.kn"), "train_tgt": str(tmp_path / "train.ml"),
            "dev_src": str(tmp_path / "dev.kn"), "dev_tgt": str(tmp_path / "dev.ml"),
            "bpe_merges": "12", "joint_bpe": str(joint),
        })
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        runner = _Runner(cfg, run_dir)
        for stage in (runner.do_prep, runner.do_bpe, runner.do_vocab, runner.do_binarize):
            stage()

        kn, ml = LanguageTag("kn"), LanguageTag("ml")
        corpora = {name: load_parallel(tmp_path / f"{name}.kn", tmp_path / f"{name}.ml",
                                       kn, ml) for name in ("train", "dev")}
        ctx = build_context(corpora["train"], num_merges=12, joint=joint)
        ref = tmp_path / "ref"
        ref.mkdir()
        for side, bpe, vocab in (("src", ctx.bpe_src, ctx.src_vocab),
                                 ("tgt", ctx.bpe_tgt, ctx.tgt_vocab)):
            bpe.save(ref / f"{side}.model")
            vocab.save(ref / f"{side}.vocab")
            for rel in (f"bpe/{side}.model", f"vocab/{side}.vocab"):
                got = (run_dir / rel).read_bytes()
                assert got == (ref / rel.split("/")[1]).read_bytes(), rel
        for name, corpus in corpora.items():
            data = encode_corpus(ctx, corpus)
            for k, side in enumerate(("src", "tgt")):
                ids = [[int(i) for i in ln.split()]
                       for ln in read_lines(run_dir / "bin" / f"{name}.{side}.ids")]
                assert ids == [pair[k] for pair in data], (name, side)
        assert (ctx.bpe_src is ctx.bpe_tgt) == joint
        assert len(corpora["train"]) == 37


CIPHER = {c: c.upper() for c in "abcdefgh"}


def write_cipher(path_src, path_tgt, rng, n):
    """Pair files whose target is the source with every letter upper-cased."""
    lines = [" ".join(sorted(CIPHER)[int(rng.uniform((), 0, len(CIPHER)))]
                      for _ in range(int(rng.uniform((), 4, 9))))
             for _ in range(n)]
    path_src.write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")
    path_tgt.write_text("".join(ln.upper() + "\n" for ln in lines), encoding="utf-8")
    return lines


@pytest.fixture(scope="module")
def bt_run(tmp_path_factory):
    """A tiny conv run with back-translation, finished once per module."""
    root = tmp_path_factory.mktemp("btrun")
    rng = RngState(5)
    for name, n in (("train", 100), ("dev", 16), ("test", 16)):
        write_cipher(root / f"{name}.kn", root / f"{name}.ml", rng, n)
    write_cipher(root / "mono.kn", root / "mono.ml", rng, 24)
    cfg = ExperimentConfig.from_pairs({
        "name": "bt", "src_lang": "kn", "tgt_lang": "ml",
        "train_src": str(root / "train.kn"), "train_tgt": str(root / "train.ml"),
        "dev_src": str(root / "dev.kn"), "dev_tgt": str(root / "dev.ml"),
        "test_src": str(root / "test.kn"), "test_tgt": str(root / "test.ml"),
        "mono": str(root / "mono.ml"), "backtranslation": "True",
        "upsample_real": "2", "bpe_merges": "30", "arch": "conv", "beam": "2",
        "seed": "1", "model.enc_layers": "1", "model.dec_layers": "1",
        "model.dim": "16", "model.max_positions": "64",
        "train.learning_rate": "0.01", "train.batch_size": "16",
        "train.max_tokens": "0", "train.epochs": "2", "train.lr_shrink": "1.0",
    })
    run_dir = run_experiment(cfg, runs_dir=root / "runs")
    return {"run_dir": run_dir, "config": cfg, "runs_dir": root / "runs"}


class TestBackTranslationRun:
    def test_stage_order_in_log(self, bt_run):
        log = (bt_run["run_dir"] / "log.txt").read_text()
        stages = ["backtranslate", "mix"] + STAGES
        order = sorted((log.index(f"stage {s}: running"), s) for s in stages)
        assert [s for _, s in order] == stages

    def test_bt_artifacts(self, bt_run):
        bt = bt_run["run_dir"] / "bt"
        for rel in ("reverse/best.dmt", "pseudo.src", "pseudo.tgt",
                    "pseudo.provenance.tsv", "augmented.src", "augmented.tgt"):
            assert (bt / rel).exists(), rel

    def test_provenance_row_per_pseudo_line(self, bt_run):
        bt = bt_run["run_dir"] / "bt"
        pseudo = read_lines(bt / "pseudo.tgt")
        sidecar = [ln.split("\t") for ln in read_lines(bt / "pseudo.provenance.tsv")]
        assert len(read_lines(bt / "pseudo.src")) == len(sidecar) == len(pseudo)
        mono = read_lines(bt_run["config"].mono)
        assert pseudo == [mono[int(row[0])] for row in sidecar]
        assert all(len(row) == 3 for row in sidecar)

    def test_augmented_counts(self, bt_run):
        bt = bt_run["run_dir"] / "bt"
        real = read_lines(bt_run["config"].train_src)
        n_pseudo = len(read_lines(bt / "pseudo.src"))
        for side in ("src", "tgt"):
            assert len(read_lines(bt / f"augmented.{side}")) == 2 * len(real) + n_pseudo

    def test_rerun_performs_no_stage_work(self, bt_run):
        run_dir = bt_run["run_dir"]
        log_before = (run_dir / "log.txt").read_text()
        run_experiment(bt_run["config"], runs_dir=bt_run["runs_dir"])
        rerun = (run_dir / "log.txt").read_text()[len(log_before):]
        assert ": running" not in rerun
        assert "nothing to do" in rerun


class TestTestSplitAdmission:
    def test_decode_and_score_only_the_admitted_pairs(self, tmp_path):
        rng = RngState(5)
        for name, n in (("train", 60), ("dev", 8), ("test", 16)):
            write_cipher(tmp_path / f"{name}.kn", tmp_path / f"{name}.ml", rng, n)
        src, tgt = read_lines(tmp_path / "test.kn"), read_lines(tmp_path / "test.ml")
        src[3] = ""           # blank on one side: rejected
        src[7] = tgt[7] = ""  # blank on both sides: dropped
        write_lines(tmp_path / "test.kn", src)
        write_lines(tmp_path / "test.ml", tgt)
        cfg = ExperimentConfig.from_pairs({
            "name": "blank", "src_lang": "kn", "tgt_lang": "ml",
            **{f"{name}_{side}": str(tmp_path / f"{name}.{lang}")
               for name in ("train", "dev", "test")
               for side, lang in (("src", "kn"), ("tgt", "ml"))},
            "bpe_merges": "30", "arch": "conv", "beam": "2", "seed": "1",
            "model.enc_layers": "1", "model.dec_layers": "1", "model.dim": "16",
            "train.learning_rate": "0.01", "train.batch_size": "16",
            "train.max_tokens": "0", "train.epochs": "1",
        })
        run_dir = run_experiment(cfg, runs_dir=tmp_path / "runs")
        out = run_dir / "outputs"
        admitted = [t for i, t in enumerate(tgt) if i not in (3, 7)]
        assert read_lines(out / "test.ref") == admitted
        assert len(read_lines(out / "test.hyp")) == len(admitted) == 14
        # one row per admitted pair, then the summary line
        assert len(read_lines(out / "test.score.tsv")) == len(admitted) + 1
        log = (run_dir / "log.txt").read_text(encoding="utf-8")
        assert "decode: test: 1 pairs rejected (blank on one side)" in log
        for stage_dir in ("prep", "bin"):
            assert not list((run_dir / stage_dir).glob("test.*")), stage_dir


class TestScoringSurface:
    def run_score_stage(self, tmp_path, detranslit_score):
        from dmt.experiment import _Runner
        run_dir = tmp_path / "run"
        (run_dir / "outputs").mkdir(parents=True)
        for name in ("test.hyp", "test.ref"):
            (run_dir / "outputs" / name).write_text(
                "ಕ ಖ ಗ ಕ\n", encoding="utf-8")  # Kannada
        cfg = ExperimentConfig.from_pairs({
            "name": "surf", "src_lang": "kn", "tgt_lang": "tu",
            "detranslit_score": str(detranslit_score),
        })
        runner = _Runner(cfg, run_dir)
        runner.do_score()
        return run_dir

    def test_native_surface_recorded(self, tmp_path):
        run_dir = self.run_score_stage(tmp_path, True)
        meta = (run_dir / "outputs" / "score.meta").read_text()
        assert "surface=native-script" in meta
        assert "1.0000" in (run_dir / "results.tsv").read_text()

    def test_devanagari_surface(self, tmp_path):
        run_dir = self.run_score_stage(tmp_path, False)
        meta = (run_dir / "outputs" / "score.meta").read_text()
        assert "surface=devanagari" in meta
        pooled = (run_dir / "outputs" / "test.hyp.dev").read_text()
        assert "क" in pooled  # Kannada KA mapped into Devanagari
        assert "1.0000" in (run_dir / "results.tsv").read_text()


class TestAggregateReport:
    def fabricate(self, root, name, system, pair, score):
        d = root / name
        d.mkdir(parents=True)
        (d / "results.tsv").write_text(
            f"system\tpair\tmean_sentence_bleu\n{system}\t{pair}\t{score}\n")

    def test_matrix_tsv(self, tmp_path):
        self.fabricate(tmp_path, "r1", "lstm", "kn-ml", "0.3531")
        self.fabricate(tmp_path, "r2", "lstm", "kn-ta", "0.3537")
        self.fabricate(tmp_path, "r3", "transformer", "kn-ml", "0.3431")
        out = aggregate_report(runs_dir=tmp_path).splitlines()
        assert out[0] == "system\tkn-ml\tkn-ta"
        assert out[1] == "lstm\t0.3531\t0.3537"
        assert out[2] == "transformer\t0.3431\t-"

    def test_matrix_markdown(self, tmp_path):
        self.fabricate(tmp_path, "r1", "conv", "kn-te", "0.0701")
        out = aggregate_report(runs_dir=tmp_path, fmt="markdown")
        assert "| conv | 0.0701 |" in out
