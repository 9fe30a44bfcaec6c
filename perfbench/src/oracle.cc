#include "oracle.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <unordered_set>

namespace perfbench {

using graphbench::snb::Comment;
using graphbench::snb::Dataset;
using graphbench::snb::Person;
using graphbench::snb::Post;
using graphbench::snb::UpdateOp;

namespace {

const std::vector<int64_t> kNoFriends;

std::string Describe(const std::string& what, int64_t key) {
  return what + " " + std::to_string(key) + ": ";
}

// "" when `ids` has no repeated value; otherwise names the first repeat.
std::string FindDuplicate(const std::vector<int64_t>& ids) {
  std::unordered_set<int64_t> seen;
  for (int64_t id : ids) {
    if (!seen.insert(id).second) {
      return "duplicate id " + std::to_string(id);
    }
  }
  return "";
}

// Compares `got` (any order, no repeats allowed) with the sorted
// reference `want`.
std::string CompareSets(const std::vector<int64_t>& got,
                        const std::vector<int64_t>& want) {
  std::string dup = FindDuplicate(got);
  if (!dup.empty()) return dup;
  std::vector<int64_t> sorted = got;
  std::sort(sorted.begin(), sorted.end());
  if (sorted == want) return "";
  std::vector<int64_t> missing, extra;
  std::set_difference(want.begin(), want.end(), sorted.begin(), sorted.end(),
                      std::back_inserter(missing));
  std::set_difference(sorted.begin(), sorted.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  std::string out = std::to_string(sorted.size()) + " ids, expected " +
                    std::to_string(want.size());
  if (!missing.empty()) out += "; missing " + std::to_string(missing[0]);
  if (!extra.empty()) out += "; unexpected " + std::to_string(extra[0]);
  return out;
}

bool Contains(const std::vector<int64_t>& sorted, int64_t id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
}

}  // namespace

Oracle::Oracle(const Dataset& snapshot) {
  for (const Person& p : snapshot.persons) AddPerson(p);
  for (const auto& k : snapshot.knows) AddKnows(k.person1, k.person2);
  for (const Post& p : snapshot.posts) AddPost(p);
  for (const Comment& c : snapshot.comments) AddComment(c);
}

void Oracle::Apply(const UpdateOp& op) {
  switch (op.kind) {
    case UpdateOp::Kind::kAddPerson:
      AddPerson(op.person);
      break;
    case UpdateOp::Kind::kAddFriendship:
      AddKnows(op.knows.person1, op.knows.person2);
      break;
    case UpdateOp::Kind::kRemoveFriendship:
      RemoveKnows(op.knows.person1, op.knows.person2);
      break;
    case UpdateOp::Kind::kAddPost:
      AddPost(op.post);
      break;
    case UpdateOp::Kind::kAddComment:
      AddComment(op.comment);
      break;
    default:
      break;  // likes, forums and memberships are invisible to the reads
  }
}

void Oracle::AddPerson(const Person& p) {
  persons_[p.id] = PersonInfo{p.first_name, p.last_name};
}

void Oracle::AddKnows(int64_t a, int64_t b) {
  std::vector<int64_t>& fa = friends_[a];
  auto it = std::lower_bound(fa.begin(), fa.end(), b);
  if (it != fa.end() && *it == b) return;  // already friends
  fa.insert(it, b);
  std::vector<int64_t>& fb = friends_[b];
  fb.insert(std::lower_bound(fb.begin(), fb.end(), a), a);
  ++friendships_;
}

void Oracle::RemoveKnows(int64_t a, int64_t b) {
  auto erase = [this](int64_t from, int64_t to) {
    std::vector<int64_t>& f = friends_[from];
    auto it = std::lower_bound(f.begin(), f.end(), to);
    if (it == f.end() || *it != to) return false;
    f.erase(it);
    return true;
  };
  if (erase(a, b) && erase(b, a)) --friendships_;
}

void Oracle::AddPost(const Post& p) {
  posts_[p.id] = PostInfo{p.creation_date, p.creator};
  posts_by_creator_[p.creator].push_back(p.id);
}

void Oracle::AddComment(const Comment& c) {
  comments_[c.id] = CommentInfo{c.creation_date, c.creator};
  if (c.reply_of_post >= 0) replies_[c.reply_of_post].push_back(c.id);
}

const std::vector<int64_t>& Oracle::Friends(int64_t person) const {
  auto it = friends_.find(person);
  return it == friends_.end() ? kNoFriends : it->second;
}

std::vector<int64_t> Oracle::TwoHop(int64_t person) const {
  std::vector<int64_t> out;
  for (int64_t f : Friends(person)) {
    for (int64_t ff : Friends(f)) {
      if (ff != person) out.push_back(ff);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int Oracle::ShortestPath(int64_t from, int64_t to) const {
  if (from == to) return 0;
  std::unordered_map<int64_t, int> depth{{from, 0}};
  std::deque<int64_t> queue{from};
  while (!queue.empty()) {
    int64_t v = queue.front();
    queue.pop_front();
    int d = depth[v];
    for (int64_t n : Friends(v)) {
      if (depth.count(n)) continue;
      if (n == to) return d + 1;
      depth[n] = d + 1;
      queue.push_back(n);
    }
  }
  return -1;
}

std::vector<int64_t> Oracle::PersonIds() const {
  std::vector<int64_t> ids;
  ids.reserve(persons_.size());
  for (const auto& [id, info] : persons_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<int64_t> Oracle::PostIds() const {
  std::vector<int64_t> ids;
  ids.reserve(posts_.size());
  for (const auto& [id, info] : posts_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

const std::string* Oracle::FirstName(int64_t person) const {
  auto it = persons_.find(person);
  return it == persons_.end() ? nullptr : &it->second.first_name;
}

std::vector<int64_t> Oracle::RecentDates(int64_t person,
                                         int64_t limit) const {
  std::vector<int64_t> dates;
  auto it = posts_by_creator_.find(person);
  if (it != posts_by_creator_.end()) {
    for (int64_t id : it->second) dates.push_back(posts_.at(id).creation_date);
  }
  std::sort(dates.begin(), dates.end(), std::greater<int64_t>());
  if (int64_t(dates.size()) > limit) dates.resize(size_t(limit));
  return dates;
}

std::string Oracle::CheckPointLookup(int64_t person,
                                     const std::vector<NameRow>& rows) const {
  auto it = persons_.find(person);
  size_t want = it == persons_.end() ? 0 : 1;
  if (rows.size() != want) {
    return Describe("point lookup", person) + std::to_string(rows.size()) +
           " rows, expected " + std::to_string(want);
  }
  if (want == 1 && (rows[0].first_name != it->second.first_name ||
                    rows[0].last_name != it->second.last_name)) {
    return Describe("point lookup", person) + "name " + rows[0].first_name +
           " " + rows[0].last_name + ", expected " + it->second.first_name +
           " " + it->second.last_name;
  }
  return "";
}

std::string Oracle::CheckOneHop(int64_t person,
                                const std::vector<int64_t>& ids) const {
  std::string diff = CompareSets(ids, Friends(person));
  return diff.empty() ? diff : Describe("one hop", person) + diff;
}

std::string Oracle::CheckTwoHop(int64_t person,
                                const std::vector<int64_t>& ids) const {
  std::string diff = CompareSets(ids, TwoHop(person));
  return diff.empty() ? diff : Describe("two hop", person) + diff;
}

std::string Oracle::CheckShortestPath(int64_t from, int64_t to,
                                      int got) const {
  int want = ShortestPath(from, to);
  if (got == want) return "";
  return Describe("shortest path from", from) + "to " + std::to_string(to) +
         " length " + std::to_string(got) + ", expected " +
         std::to_string(want);
}

std::string Oracle::CheckRecentPosts(int64_t person, int64_t limit,
                                     const std::vector<PostRow>& rows) const {
  std::vector<int64_t> want = RecentDates(person, limit);
  if (rows.size() != want.size()) {
    return Describe("recent posts", person) + std::to_string(rows.size()) +
           " rows, expected " + std::to_string(want.size());
  }
  std::vector<int64_t> ids;
  for (size_t i = 0; i < rows.size(); ++i) {
    auto it = posts_.find(rows[i].id);
    if (it == posts_.end() || it->second.creator != person) {
      return Describe("recent posts", person) + "post " +
             std::to_string(rows[i].id) + " is not theirs";
    }
    if (rows[i].creation_date != it->second.creation_date ||
        rows[i].creation_date != want[i]) {
      return Describe("recent posts", person) + "row " + std::to_string(i) +
             " date " + std::to_string(rows[i].creation_date) +
             ", expected " + std::to_string(want[i]);
    }
    ids.push_back(rows[i].id);
  }
  std::string dup = FindDuplicate(ids);
  return dup.empty() ? dup : Describe("recent posts", person) + dup;
}

std::string Oracle::CheckFriendsWithName(
    int64_t person, const std::string& first_name,
    const std::vector<int64_t>& ids) const {
  std::vector<int64_t> want;
  for (int64_t f : Friends(person)) {
    const std::string* name = FirstName(f);
    if (name != nullptr && *name == first_name) want.push_back(f);
  }
  std::string diff = CompareSets(ids, want);
  return diff.empty()
             ? diff
             : Describe("friends named " + first_name + " of", person) + diff;
}

std::string Oracle::CheckRepliesOfPost(
    int64_t post, const std::vector<ReplyRow>& rows) const {
  auto it = replies_.find(post);
  std::vector<int64_t> want =
      it == replies_.end() ? std::vector<int64_t>() : it->second;
  std::sort(want.begin(), want.end());
  std::vector<int64_t> ids;
  for (const ReplyRow& r : rows) ids.push_back(r.id);
  std::string diff = CompareSets(ids, want);
  if (!diff.empty()) return Describe("replies of post", post) + diff;
  int64_t previous = INT64_MAX;
  for (const ReplyRow& r : rows) {
    const CommentInfo& c = comments_.at(r.id);
    if (r.creator != c.creator) {
      return Describe("replies of post", post) + "comment " +
             std::to_string(r.id) + " creator " + std::to_string(r.creator) +
             ", expected " + std::to_string(c.creator);
    }
    if (c.creation_date > previous) {
      return Describe("replies of post", post) + "comment " +
             std::to_string(r.id) + " is newer than the row before it";
    }
    previous = c.creation_date;
  }
  return "";
}

std::string Oracle::CheckTopPosters(int64_t limit,
                                    const std::vector<PosterRow>& rows) const {
  std::vector<PosterRow> want;
  for (const auto& [creator, posts] : posts_by_creator_) {
    want.push_back(PosterRow{creator, int64_t(posts.size())});
  }
  std::sort(want.begin(), want.end(),
            [](const PosterRow& a, const PosterRow& b) {
              if (a.posts != b.posts) return a.posts > b.posts;
              return a.person < b.person;
            });
  if (int64_t(want.size()) > limit) want.resize(size_t(limit));
  if (rows.size() != want.size()) {
    return "top posters: " + std::to_string(rows.size()) +
           " rows, expected " + std::to_string(want.size());
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].person != want[i].person || rows[i].posts != want[i].posts) {
      return "top posters: rank " + std::to_string(i) + " is person " +
             std::to_string(rows[i].person) + " with " +
             std::to_string(rows[i].posts) + " posts, expected " +
             std::to_string(want[i].person) + " with " +
             std::to_string(want[i].posts);
    }
  }
  return "";
}

std::string Oracle::CheckOneHopDuring(const Oracle& before,
                                      const Oracle& after, int64_t person,
                                      const std::vector<int64_t>& ids) {
  std::string dup = FindDuplicate(ids);
  if (!dup.empty()) return Describe("one hop", person) + dup;
  const std::vector<int64_t>& all = after.Friends(person);
  for (int64_t id : ids) {
    if (!Contains(all, id)) {
      return Describe("one hop", person) + "friend " + std::to_string(id) +
             " is neither in the snapshot nor added by the stream";
    }
  }
  std::vector<int64_t> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  for (int64_t id : before.Friends(person)) {
    if (!Contains(sorted, id)) {
      return Describe("one hop", person) + "snapshot friend " +
             std::to_string(id) + " is missing";
    }
  }
  return "";
}

std::string Oracle::CheckTwoHopDuring(const Oracle& after, int64_t person,
                                      const std::vector<int64_t>& ids) {
  std::string dup = FindDuplicate(ids);
  if (!dup.empty()) return Describe("two hop", person) + dup;
  std::vector<int64_t> all = after.TwoHop(person);
  for (int64_t id : ids) {
    if (id == person) {
      return Describe("two hop", person) + "the result includes the person";
    }
    if (!Contains(all, id)) {
      return Describe("two hop", person) + std::to_string(id) +
             " is not two hops away even after the whole stream";
    }
  }
  return "";
}

std::string Oracle::CheckRecentPostsDuring(const Oracle& before,
                                           const Oracle& after,
                                           int64_t person, int64_t limit,
                                           const std::vector<PostRow>& rows) {
  size_t at_least = before.RecentDates(person, limit).size();
  if (rows.size() < at_least || int64_t(rows.size()) > limit) {
    return Describe("recent posts", person) + std::to_string(rows.size()) +
           " rows, expected between " + std::to_string(at_least) + " and " +
           std::to_string(limit);
  }
  std::vector<int64_t> ids;
  for (size_t i = 0; i < rows.size(); ++i) {
    auto it = after.posts_.find(rows[i].id);
    if (it == after.posts_.end() || it->second.creator != person ||
        it->second.creation_date != rows[i].creation_date) {
      return Describe("recent posts", person) + "post " +
             std::to_string(rows[i].id) + " is not theirs with that date";
    }
    if (i > 0 && rows[i].creation_date > rows[i - 1].creation_date) {
      return Describe("recent posts", person) + "dates increase at row " +
             std::to_string(i);
    }
    ids.push_back(rows[i].id);
  }
  std::string dup = FindDuplicate(ids);
  return dup.empty() ? dup : Describe("recent posts", person) + dup;
}

}  // namespace perfbench
