"""Exhaustive verification: every identity, every semigroup, every ideal."""

from typeseq import CensusQuery, search_negative_a, verify_theorems

# all semigroups of genus <= 7, all proper ideals reaching 2 past the
# conductor, every check group
query = CensusQuery(max_genus=7, window=2)
rep = verify_theorems(query)
print(f"semigroups: {rep.semigroup_count}  ideals: {rep.ideal_count}")
print(f"per genus: {rep.semigroups_per_genus}")
print(f"distinct checks: {len(rep.check_tallies)}  violations: {len(rep.violations)}")
assert rep.passed

# the same run is byte-identical no matter how many workers share it:
# worker i of w censuses every w-th semigroup of the walk, from the i-th on
parallel = verify_theorems(CensusQuery(max_genus=7, window=2, workers=4))
assert rep.to_json() == parallel.to_json()
print("parallel run byte-identical: yes")

# searching for ideals with a < 0; the first ones appear at genus 8
found = search_negative_a(CensusQuery(max_genus=8, window=2))
print(f"\nnegative-a search at genus <= 8: {len(found.examples)} examples")
for sg, ideal, a in found.examples:
    print(f"  a = {a}  ideal {ideal}  over {sg}")
assert len(found.examples) == 4
