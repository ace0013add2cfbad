import linkgroup
from linkgroup import diagrams, gems, homology, permgroups, quotients, words


def test_every_exported_name_resolves_once():
    assert len(linkgroup.__all__) == len(set(linkgroup.__all__))
    for name in linkgroup.__all__:
        assert hasattr(linkgroup, name), name
    assert linkgroup.self_writhes is diagrams.self_writhes


def test_removed_wrappers_stay_removed():
    # each job is done by the public call named beside it
    removed = [
        (homology, "is_perfect"),                     # first_homology(p) == []
        (homology.IntegerMatrix, "identity"),         # IntegerMatrix.from_rows
        (homology.IntegerMatrix, "zeros"),            # IntegerMatrix.from_rows
        (permgroups, "closure"),                      # FiniteGroup(...).elements()
        (permgroups, "inverse_perm"),                 # FiniteGroup(...).tables()[1]
        (gems, "is_gem"),                             # gem_report(g)["is_gem"]
        (diagrams, "self_writhe"),                    # self_writhes(d)[i]
        (diagrams.LinkDiagram, "component_of"),
        (words.Word, "exponent_sum"),
        (quotients.InvariantProfile, "comparable_dict"),  # comparable_json()
    ]
    for owner, name in removed:
        assert not hasattr(owner, name), name
        assert name not in linkgroup.__all__
