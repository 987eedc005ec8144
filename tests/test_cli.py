"""Subcommand surface: filters, pipelines, exit codes, help texts."""

import pytest

from dmt.autodiff import RngState
from dmt.cli import _SCRIPT_LANG, main

from conftest import write_copy_corpus


def run_cli(capsys, monkeypatch, argv, stdin=""):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ALL_COMMANDS = [
    ["prep", "normalize"], ["prep", "tokenize"], ["prep", "detok"],
    ["prep", "translit"], ["bpe", "learn"], ["bpe", "apply"], ["bpe", "undo"],
    ["vocab", "build"], ["binarize"], ["split"], ["stats"], ["translate"],
    ["backtranslate"], ["mix"], ["score"], ["run"], ["report"],
]


class TestHelp:
    @pytest.mark.parametrize("cmd", ALL_COMMANDS, ids=lambda c: "-".join(c))
    def test_every_subcommand_has_help(self, capsys, cmd):
        with pytest.raises(SystemExit) as exc:
            main(cmd + ["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--help" in out or "usage" in out

    def test_help_lists_flags_with_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["translate", "--help"])
        out = capsys.readouterr().out
        for flag in ("--checkpoint", "--bpe-model", "--vocab-src", "--vocab-tgt",
                     "--src-script", "--tgt-script", "--beam", "--max-len"):
            assert flag in out
        assert "default: 5" in out      # beam default
        assert "default: 1.0" in out    # length penalty default

    def test_script_flags_name_the_first_language_in_each_script(self, capsys):
        """Each script flag stands for the first language textnorm lists in
        that script: kannada is kn, not tu."""
        assert _SCRIPT_LANG == {"devanagari": "sn", "kannada": "kn", "malayalam": "ml",
                                "tamil": "ta", "telugu": "te"}
        with pytest.raises(SystemExit):
            main(["prep", "translit", "--help"])
        assert "{devanagari,kannada,malayalam,tamil,telugu}" in capsys.readouterr().out

    def test_backtranslate_flag_names(self, capsys):
        with pytest.raises(SystemExit):
            main(["backtranslate", "--help"])
        out = capsys.readouterr().out
        for flag in ("--reverse-checkpoint", "--mono", "--out"):
            assert flag in out


class TestPrepFilters:
    def test_normalize(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["prep", "normalize", "--lang", "kn"],
                               stdin="a  b\n")
        assert code == 0
        assert out == "a b\n"

    def test_tokenize(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["prep", "tokenize"],
                               stdin="hello, world\n")
        assert out == "hello , world\n"

    def test_detok(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["prep", "detok"],
                               stdin="hello , world\n")
        assert out == "hello, world\n"

    def test_translit(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["prep", "translit", "--from", "kannada",
                                "--to", "devanagari"],
                               stdin="ಕ\n")
        assert out == "क\n"


class TestInputLines:
    def test_stdin_splits_on_lf_only(self, capsys, monkeypatch):
        # \f inside a line must not make an extra output line
        code, out, _ = run_cli(capsys, monkeypatch, ["prep", "tokenize"],
                               stdin="a\fb\nc d\n")
        assert code == 0
        assert out == "a b\nc d\n"

    TRANSLATE = ["translate", "--bpe-model", "{m}", "--vocab-src", "{v}",
                 "--vocab-tgt", "{v}", "--src-script", "kannada",
                 "--tgt-script", "kannada", "--checkpoint"]

    @pytest.mark.parametrize("argv,name", [
        (["prep", "tokenize", "--in"], "missing"),
        (["prep", "tokenize", "--in"], "."),
        (["run", "--config"], "missing"),
        (["bpe", "apply", "--model"], "missing"),
        (["bpe", "apply", "--model"], "bad.txt"),
        (["bpe", "apply", "--model"], "."),
        (["binarize", "--vocab"], "missing"),
        (["binarize", "--vocab"], "bad.txt"),
        (TRANSLATE, "."),
        (TRANSLATE, "cut.dmt"),
        (TRANSLATE, "meta.dmt"),
    ], ids=["missing", "directory", "run-config-missing", "bpe-model-missing",
            "bpe-model-non-utf8", "bpe-model-directory", "vocab-missing",
            "vocab-non-utf8", "checkpoint-directory", "checkpoint-truncated-length",
            "checkpoint-non-utf8-metadata"])
    def test_unreadable_input_file_is_a_one_line_error(self, capsys, monkeypatch,
                                                       tmp_path, argv, name):
        (tmp_path / "bad.txt").write_bytes(b"a \xff b\n")
        (tmp_path / "m").write_text("dmt-bpe v1\n", encoding="utf-8")
        (tmp_path / "v").write_text("a\t1\n", encoding="utf-8")
        # a metadata length cut short; three bytes of non-UTF-8 metadata
        (tmp_path / "cut.dmt").write_bytes(b"DMT1\x05\x00")
        (tmp_path / "meta.dmt").write_bytes(b"DMT1\x03" + bytes(7) + b"\xff\xfe\xfd")
        argv = [a.format(m=tmp_path / "m", v=tmp_path / "v") for a in argv]
        code, out, err = run_cli(capsys, monkeypatch, argv + [str(tmp_path / name)])
        assert code == 1
        assert out == ""
        assert err.startswith("dmt: error:") and len(err.strip().splitlines()) == 1

    def test_non_integer_vocab_count_is_a_one_line_error(self, capsys, monkeypatch,
                                                         tmp_path):
        vocab = tmp_path / "v"
        vocab.write_text("a\tx\n", encoding="utf-8")
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["binarize", "--vocab", str(vocab)], stdin="a\n")
        assert code == 1
        assert out == ""
        assert err.startswith("dmt: error:") and len(err.strip().splitlines()) == 1

    def test_non_utf8_input_file_is_a_one_line_error(self, capsys, monkeypatch,
                                                     tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a \xff b\n")
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["prep", "tokenize", "--in", str(bad)])
        assert code == 1
        assert out == ""
        assert "not valid UTF-8" in err and len(err.strip().splitlines()) == 1


class TestBpePipeline:
    def test_learn_apply_undo_round_trip(self, capsys, monkeypatch, tmp_path):
        corpus = "low lower lowest\nnew newer newest\nlow new低\n".replace("低", "")
        model_path = tmp_path / "bpe.model"
        code, _, err = run_cli(capsys, monkeypatch,
                               ["bpe", "learn", "--merges", "20",
                                "--out-model", str(model_path)], stdin=corpus)
        assert code == 0 and model_path.exists()
        code, applied, _ = run_cli(capsys, monkeypatch,
                                   ["bpe", "apply", "--model", str(model_path)],
                                   stdin=corpus)
        assert code == 0
        code, restored, _ = run_cli(capsys, monkeypatch, ["bpe", "undo"],
                                    stdin=applied)
        assert restored == corpus

    def test_full_prep_pipe_reproduces_normalized_input(self, capsys, monkeypatch,
                                                        tmp_path):
        raw = "ಇದು ಒಳ್ಳೆಯ ದಿನ.\nಪುಸ್ತಕ ಮೇಜಿನ ಮೇಲೆ ಇದೆ.\n"
        _, normalized, _ = run_cli(capsys, monkeypatch, ["prep", "normalize"],
                                   stdin=raw)
        _, tokenized, _ = run_cli(capsys, monkeypatch, ["prep", "tokenize"],
                                  stdin=normalized)
        model_path = tmp_path / "m.bpe"
        run_cli(capsys, monkeypatch, ["bpe", "learn", "--merges", "10",
                                      "--out-model", str(model_path)],
                stdin=tokenized)
        _, applied, _ = run_cli(capsys, monkeypatch,
                                ["bpe", "apply", "--model", str(model_path)],
                                stdin=tokenized)
        _, undone, _ = run_cli(capsys, monkeypatch, ["bpe", "undo"], stdin=applied)
        _, detok, _ = run_cli(capsys, monkeypatch, ["prep", "detok"], stdin=undone)
        assert detok == normalized


class TestVocabBinarize:
    def test_build_and_binarize(self, capsys, monkeypatch, tmp_path):
        vocab_path = tmp_path / "v.vocab"
        run_cli(capsys, monkeypatch,
                ["vocab", "build", "--out", str(vocab_path)], stdin="a a b\n")
        assert vocab_path.exists()
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["binarize", "--vocab", str(vocab_path)],
                               stdin="a b zzz\n")
        assert out == "4 5 1 3\n"  # a=4, b=5, unk=1, eos=3


class TestSplitStats:
    def test_split_writes_partitions(self, capsys, monkeypatch, tmp_path):
        rng = RngState(3)
        write_copy_corpus(tmp_path / "c.kn", tmp_path / "c.ml", rng, 30,
                          ["a", "b", "c"])
        code, _, err = run_cli(capsys, monkeypatch,
                               ["split", "--src", str(tmp_path / "c.kn"),
                                "--tgt", str(tmp_path / "c.ml"),
                                "--src-lang", "kn", "--tgt-lang", "ml",
                                "--train-n", "20", "--dev-n", "5", "--test-n", "5",
                                "--seed", "7", "--out-dir", str(tmp_path / "parts")])
        assert code == 0
        for name, n in (("train", 20), ("dev", 5), ("test", 5)):
            lines = (tmp_path / "parts" / f"{name}.kn").read_text().splitlines()
            assert len(lines) == n

    def test_stats_output(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "s.kn").write_text("a b c\nd e\n", encoding="utf-8")
        (tmp_path / "s.ml").write_text("x\ny z\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["stats", "--src", str(tmp_path / "s.kn"),
                                "--tgt", str(tmp_path / "s.ml"),
                                "--src-lang", "kn", "--tgt-lang", "ml"])
        assert "n_pairs\t2" in out
        assert "n_tokens_src\t5" in out


class TestScore:
    def test_identical_files_print_one(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("one two three four five\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["score", "--cand", str(f), "--ref", str(f)])
        assert code == 0
        assert out.strip() == "mean_sentence_bleu\t1.0000"

    def test_mismatched_lines_exit_nonzero(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "c.txt").write_text("a b c d\n", encoding="utf-8")
        (tmp_path / "r.txt").write_text("a b c d\ne f g h\n", encoding="utf-8")
        code, _, err = run_cli(capsys, monkeypatch,
                               ["score", "--cand", str(tmp_path / "c.txt"),
                                "--ref", str(tmp_path / "r.txt")])
        assert code == 1
        assert "dmt: error:" in err
        assert len(err.strip().splitlines()) == 1

    def test_report_written(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("one two three four\n", encoding="utf-8")
        report = tmp_path / "r.tsv"
        run_cli(capsys, monkeypatch,
                ["score", "--cand", str(f), "--ref", str(f),
                 "--report", str(report)])
        assert report.exists()


class TestModelCommands:
    def test_translate_round_trips_copy_model(self, capsys, monkeypatch,
                                              copy_experiment, tmp_path):
        run_dir = copy_experiment["run_dir"]
        src_lines = (copy_experiment["data"] / "train.kn").read_text().splitlines()
        code, out, _ = run_cli(
            capsys, monkeypatch,
            ["translate",
             "--checkpoint", str(run_dir / "best.dmt"),
             "--bpe-model", str(run_dir / "bpe" / "src.model"),
             "--bpe-model-tgt", str(run_dir / "bpe" / "tgt.model"),
             "--vocab-src", str(run_dir / "vocab" / "src.vocab"),
             "--vocab-tgt", str(run_dir / "vocab" / "tgt.vocab"),
             "--src-script", "kannada", "--tgt-script", "malayalam",
             "--beam", "2"],
            stdin="".join(ln + "\n" for ln in src_lines[:8]))
        assert code == 0
        hyp = out.splitlines()
        from dmt.bleu import score_corpus
        report = score_corpus([h.split() for h in hyp],
                              [[s.split()] for s in src_lines[:8]])
        assert report.mean > 0.7  # overfit copy model mostly reproduces input

    def test_translate_negative_max_len_is_a_one_line_error(self, capsys, monkeypatch,
                                                            copy_experiment):
        run_dir = copy_experiment["run_dir"]
        code, out, err = run_cli(
            capsys, monkeypatch,
            ["translate",
             "--checkpoint", str(run_dir / "best.dmt"),
             "--bpe-model", str(run_dir / "bpe" / "src.model"),
             "--vocab-src", str(run_dir / "vocab" / "src.vocab"),
             "--vocab-tgt", str(run_dir / "vocab" / "tgt.vocab"),
             "--src-script", "kannada", "--tgt-script", "malayalam",
             "--max-len", "-1"],
            stdin="a b\n")
        assert code == 1
        assert out == ""
        assert err.startswith("dmt: error: max_len") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("cmd,ckpt_flag", [(["translate"], "--checkpoint"),
                                               (["backtranslate", "--mono", "m.ml",
                                                 "--out", "o"], "--reverse-checkpoint")],
                             ids=["translate", "backtranslate"])
    def test_decode_flags_checked_before_files_are_read(self, capsys, monkeypatch,
                                                        tmp_path, cmd, ckpt_flag):
        # no checkpoint, BPE or vocabulary file exists: a bad beam must be
        # the diagnostic, not the first missing file
        missing = lambda name: str(tmp_path / name)
        code, out, err = run_cli(
            capsys, monkeypatch,
            cmd + [ckpt_flag, missing("best.dmt"),
                   "--bpe-model", missing("src.model"),
                   "--vocab-src", missing("src.vocab"),
                   "--vocab-tgt", missing("tgt.vocab"),
                   "--src-script", "kannada", "--tgt-script", "malayalam",
                   "--beam", "0"],
            stdin="a b\n")
        assert code == 1
        assert out == ""
        assert err.startswith("dmt: error: beam") and len(err.strip().splitlines()) == 1

    def test_translate_empty_line_gives_empty_line(self, capsys, monkeypatch,
                                                   copy_experiment):
        run_dir = copy_experiment["run_dir"]
        code, out, _ = run_cli(
            capsys, monkeypatch,
            ["translate",
             "--checkpoint", str(run_dir / "best.dmt"),
             "--bpe-model", str(run_dir / "bpe" / "src.model"),
             "--vocab-src", str(run_dir / "vocab" / "src.vocab"),
             "--vocab-tgt", str(run_dir / "vocab" / "tgt.vocab"),
             "--src-script", "kannada", "--tgt-script", "malayalam"],
            stdin="\n")
        assert out == "\n"

    def test_backtranslate_and_mix(self, capsys, monkeypatch, copy_experiment,
                                   tmp_path):
        run_dir = copy_experiment["run_dir"]
        mono = tmp_path / "mono.ml"
        lines = (copy_experiment["data"] / "dev.ml").read_text().splitlines()[:5]
        mono.write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")
        # the copy model is its own reverse model (ml->kn == identity)
        code, _, err = run_cli(
            capsys, monkeypatch,
            ["backtranslate",
             "--reverse-checkpoint", str(run_dir / "best.dmt"),
             "--bpe-model", str(run_dir / "bpe" / "src.model"),
             "--vocab-src", str(run_dir / "vocab" / "src.vocab"),
             "--vocab-tgt", str(run_dir / "vocab" / "tgt.vocab"),
             "--src-script", "malayalam", "--tgt-script", "kannada",
             "--beam", "1",
             "--mono", str(mono), "--out", str(tmp_path / "pseudo")])
        assert code == 0
        assert (tmp_path / "pseudo.src").exists()
        assert (tmp_path / "pseudo.tgt").read_text().splitlines() == lines
        assert (tmp_path / "pseudo.provenance.tsv").exists()

        rng = RngState(9)
        write_copy_corpus(tmp_path / "real.src", tmp_path / "real.tgt", rng, 7,
                          ["a", "b", "c", "d"])
        code, _, err = run_cli(
            capsys, monkeypatch,
            ["mix", "--real", str(tmp_path / "real"),
             "--pseudo", str(tmp_path / "pseudo"),
             "--out", str(tmp_path / "mixed"),
             "--src-lang", "kn", "--tgt-lang", "ml", "--seed", "3"])
        assert code == 0
        n_pseudo = len((tmp_path / "pseudo.src").read_text().splitlines())
        assert len((tmp_path / "mixed.src").read_text().splitlines()) == 7 + n_pseudo


class TestRunAndReport:
    def test_run_rerun_and_report(self, capsys, monkeypatch, copy_experiment):
        code, out, err = run_cli(
            capsys, monkeypatch,
            ["run", "--config", str(copy_experiment["config_path"]),
             "--runs-dir", str(copy_experiment["runs_dir"])])
        assert code == 0
        assert "nothing to do" in err

        code, out, _ = run_cli(capsys, monkeypatch,
                               ["report", "--runs-dir",
                                str(copy_experiment["runs_dir"])])
        assert code == 0
        assert out.splitlines()[0] == "system\tkn-ml"

    def test_run_missing_config_path(self, capsys, monkeypatch, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("name=bad\nsrc_lang=kn\ntgt_lang=ml\n"
                       "train_src=/nonexistent\n", encoding="utf-8")
        code, _, err = run_cli(capsys, monkeypatch,
                               ["run", "--config", str(cfg),
                                "--runs-dir", str(tmp_path / "runs")])
        assert code == 1
        assert "dmt: error:" in err

    @pytest.mark.parametrize("item,named", [
        ("seed", "seed"), ("train.adam_eps=1e-8", "train.adam_eps"),
        ("joint_bpe=yes", "joint_bpe")])
    def test_bad_set_item_is_a_one_line_error(self, capsys, monkeypatch, tmp_path,
                                              item, named):
        (tmp_path / "c.kn").write_text("a b\n", encoding="utf-8")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("name=c\nsrc_lang=kn\ntgt_lang=kn\n" + "".join(
            f"{k}={tmp_path / 'c.kn'}\n"
            for k in ("train_src", "train_tgt", "dev_src", "dev_tgt")), encoding="utf-8")
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["run", "--config", str(cfg), "--set", item,
                                  "--runs-dir", str(tmp_path / "runs")])
        assert code == 1 and out == ""
        assert err.startswith("dmt: error:") and len(err.strip().splitlines()) == 1
        assert named in err
        assert not (tmp_path / "runs").exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
