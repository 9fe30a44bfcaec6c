#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// Reference answers for every read the benchmark issues, computed from the
// generated dataset and the update stream with plain containers only: no
// engine, query language, or SUT code is involved, so a wrong answer from
// the program cannot be echoed back by the oracle.
//
// Answers to check arrive as plain rows (the benchmark converts each
// SUT's QueryResult first). Every Check* returns "" when the answer is
// right and a one-line description of the first difference otherwise.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "snb/schema.h"

namespace perfbench {

struct NameRow {
  std::string first_name;
  std::string last_name;
};

struct PostRow {
  int64_t id = 0;
  int64_t creation_date = 0;
};

struct ReplyRow {
  int64_t id = 0;
  int64_t creator = 0;
};

struct PosterRow {
  int64_t person = 0;
  int64_t posts = 0;
};

class Oracle {
 public:
  /// The static snapshot only; Apply adds stream operations.
  explicit Oracle(const graphbench::snb::Dataset& snapshot);

  /// Replays one update-stream operation. Only the entities the reads can
  /// see are tracked (persons, friendships, posts, comments).
  void Apply(const graphbench::snb::UpdateOp& op);

  // --- Reference answers ------------------------------------------------
  /// Sorted friend ids (empty for an unknown person).
  const std::vector<int64_t>& Friends(int64_t person) const;
  /// Sorted distinct friends-of-friends, excluding `person`.
  std::vector<int64_t> TwoHop(int64_t person) const;
  /// Breadth-first hop count over knows; 0 for from == to, -1 if
  /// unreachable.
  int ShortestPath(int64_t from, int64_t to) const;
  /// Number of undirected friendships.
  int64_t FriendshipCount() const { return friendships_; }
  /// Every known person id, ascending.
  std::vector<int64_t> PersonIds() const;
  /// Every known post id, ascending.
  std::vector<int64_t> PostIds() const;
  const std::string* FirstName(int64_t person) const;

  // --- Exact checks (final state) ----------------------------------------
  std::string CheckPointLookup(int64_t person,
                               const std::vector<NameRow>& rows) const;
  std::string CheckOneHop(int64_t person,
                          const std::vector<int64_t>& ids) const;
  std::string CheckTwoHop(int64_t person,
                          const std::vector<int64_t>& ids) const;
  std::string CheckShortestPath(int64_t from, int64_t to, int got) const;
  /// ORDER BY creationDate DESC LIMIT n leaves ties open: compares the
  /// date sequence and that each row is a post of `person` with that date.
  std::string CheckRecentPosts(int64_t person, int64_t limit,
                               const std::vector<PostRow>& rows) const;
  std::string CheckFriendsWithName(int64_t person,
                                   const std::string& first_name,
                                   const std::vector<int64_t>& ids) const;
  /// Replies are ordered by creationDate DESC, ties open: compares the set,
  /// each reply's creator, and that the dates never increase.
  std::string CheckRepliesOfPost(int64_t post,
                                 const std::vector<ReplyRow>& rows) const;
  /// Post count descending, then person id ascending: a total order, so
  /// the ranking must match row for row.
  std::string CheckTopPosters(int64_t limit,
                              const std::vector<PosterRow>& rows) const;

  // --- Checks that hold under any interleaving of an add-only stream -----
  // `before` holds the snapshot and `after` the snapshot plus the whole
  // stream; a read taken at any moment of the stream lies between them.
  static std::string CheckOneHopDuring(const Oracle& before,
                                       const Oracle& after, int64_t person,
                                       const std::vector<int64_t>& ids);
  static std::string CheckTwoHopDuring(const Oracle& after, int64_t person,
                                       const std::vector<int64_t>& ids);
  static std::string CheckRecentPostsDuring(const Oracle& before,
                                            const Oracle& after,
                                            int64_t person, int64_t limit,
                                            const std::vector<PostRow>& rows);

 private:
  struct PersonInfo {
    std::string first_name;
    std::string last_name;
  };
  struct CommentInfo {
    int64_t creation_date = 0;
    int64_t creator = 0;
  };
  struct PostInfo {
    int64_t creation_date = 0;
    int64_t creator = 0;
  };

  void AddPerson(const graphbench::snb::Person& p);
  void AddKnows(int64_t a, int64_t b);
  void RemoveKnows(int64_t a, int64_t b);
  void AddPost(const graphbench::snb::Post& p);
  void AddComment(const graphbench::snb::Comment& c);
  /// Dates of `person`'s posts, newest first.
  std::vector<int64_t> RecentDates(int64_t person, int64_t limit) const;

  std::unordered_map<int64_t, PersonInfo> persons_;
  std::unordered_map<int64_t, std::vector<int64_t>> friends_;  // sorted
  int64_t friendships_ = 0;
  std::unordered_map<int64_t, PostInfo> posts_;
  std::unordered_map<int64_t, std::vector<int64_t>> posts_by_creator_;
  std::unordered_map<int64_t, CommentInfo> comments_;
  std::unordered_map<int64_t, std::vector<int64_t>> replies_;  // post ->
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
