import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs_as_its_comments_say(capsys):
    section = README.read_text().split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    stop_reason, steps = re.search(r'# "(\w+)" here: (\d+) steps', code).groups()
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.stop_reason == stop_reason == "tolerance"
    # the iteration count may move by a step or two across BLAS builds
    assert abs(report.iterations - int(steps)) <= 2
    assert capsys.readouterr().out.startswith(f"{report.stop_reason} {report.iterations}\n")


def test_every_tg_name_the_readme_mentions_is_public():
    import tvglearn as tg

    # tg.__all__ itself names the list, not a member of it
    mentioned = set(re.findall(r"\btg\.([A-Za-z]\w*)", README.read_text()))
    assert mentioned, "the README names no tg.<name>"
    assert sorted(mentioned - set(tg.__all__)) == []
