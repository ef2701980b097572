#include "xml/corpus.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/logging.h"
#include "xml/parser.h"

namespace kadop::xml::corpus {

namespace {

std::string SyntheticWord(size_t i) {
  // Varying-length pronounceable-ish tokens: "wa", "keb", "ruzo", ...
  static const char* kCons = "bcdfgklmnprstvz";
  static const char* kVow = "aeiou";
  std::string w;
  size_t x = i + 7;
  while (x > 0) {
    w += kCons[x % 15];
    x /= 15;
    w += kVow[x % 5];
    x /= 5;
  }
  return w;
}

std::string AuthorName(size_t rank, size_t ullman_rank) {
  if (rank == ullman_rank) return "Ullman";
  std::string w = SyntheticWord(rank * 31 + 5);
  w[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(w[0])));
  return "Auth" + w;
}

}  // namespace

WordBag::WordBag(size_t vocab_size, double s,
                 std::vector<std::pair<std::string, size_t>> planted)
    : sampler_(vocab_size, s) {
  words_.reserve(vocab_size);
  for (size_t i = 0; i < vocab_size; ++i) words_.push_back(SyntheticWord(i));
  for (auto& [word, rank] : planted) {
    KADOP_CHECK(rank < vocab_size, "planted rank out of range");
    words_[rank] = std::move(word);
  }
}

const std::string& WordBag::Sample(Rng& rng) const {
  return words_[sampler_.Sample(rng)];
}

void WordBag::SampleSentence(Rng& rng, size_t n, std::string& out) const {
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) out += ' ';
    out += Sample(rng);
  }
}

std::vector<Document> GenerateDblp(const DblpOptions& options) {
  Rng rng(options.seed);
  WordBag titles(5000, 1.05,
                 {{"system", 40}, {"xml", 120}, {"database", 80},
                  {"query", 55}, {"graph", 150}});
  ZipfSampler authors(options.author_pool, 0.9);

  std::vector<Document> docs;
  size_t total_bytes = 0;
  size_t doc_index = 0;
  while (total_bytes < options.target_bytes) {
    Document doc;
    doc.uri = "dblp/part" + std::to_string(doc_index++) + ".xml";
    doc.root = Node::Element("dblp");
    size_t doc_bytes = 0;
    while (doc_bytes < options.doc_bytes) {
      const double kind = rng.NextDouble();
      const char* tag = kind < 0.40 ? "article"
                        : kind < 0.85 ? "inproceedings"
                                      : "incollection";
      Node* entry = doc.root->AddElement(tag);
      const size_t n_authors = 1 + rng.Uniform(4);
      for (size_t a = 0; a < n_authors; ++a) {
        entry->AddElement("author")->AddText(
            AuthorName(authors.Sample(rng), options.ullman_rank));
      }
      std::string title_text;
      titles.SampleSentence(rng, 5 + rng.Uniform(8), title_text);
      entry->AddElement("title")->AddText(std::move(title_text));
      entry->AddElement("year")->AddText(
          std::to_string(1970 + rng.Uniform(37)));
      if (kind < 0.40) {
        entry->AddElement("journal")->AddText(
            std::string("J").append(SyntheticWord(rng.Uniform(50))));
        entry->AddElement("volume")->AddText(
            std::to_string(1 + rng.Uniform(40)));
      } else {
        entry->AddElement("booktitle")->AddText(
            "Proc" + SyntheticWord(rng.Uniform(80)));
      }
      entry->AddElement("pages")->AddText(std::to_string(rng.Uniform(500)) +
                                          "-" +
                                          std::to_string(rng.Uniform(500)));
      // Rough serialized footprint of one entry; exact size is recomputed
      // below from the serializer.
      doc_bytes += 220 + 18 * n_authors;
    }
    AnnotateSids(doc);
    total_bytes += SerializeDocument(doc).size();
    docs.push_back(std::move(doc));
  }
  return docs;
}

std::vector<Document> GenerateImdb(const SimpleCorpusOptions& options) {
  Rng rng(options.seed);
  WordBag words(3000, 1.0, {{"love", 30}, {"war", 90}});
  std::vector<Document> docs;
  size_t elements = 0;
  size_t doc_index = 0;
  while (elements < options.target_elements) {
    Document doc;
    doc.uri = "imdb/part" + std::to_string(doc_index++) + ".xml";
    doc.root = Node::Element("imdb");
    for (size_t m = 0; m < 200 && elements < options.target_elements; ++m) {
      Node* movie = doc.root->AddElement("movie");
      std::string t;
      words.SampleSentence(rng, 2 + rng.Uniform(4), t);
      movie->AddElement("title")->AddText(std::move(t));
      movie->AddElement("year")->AddText(
          std::to_string(1930 + rng.Uniform(80)));
      movie->AddElement("genre")->AddText(SyntheticWord(rng.Uniform(20)));
      const size_t n_actors = 3 + rng.Uniform(6);
      Node* cast = movie->AddElement("cast");
      for (size_t a = 0; a < n_actors; ++a) {
        cast->AddElement("actor")->AddText(
            "Act" + SyntheticWord(rng.Uniform(4000)));
      }
      movie->AddElement("director")->AddText(
          "Dir" + SyntheticWord(rng.Uniform(800)));
      elements += 6 + n_actors;
    }
    AnnotateSids(doc);
    docs.push_back(std::move(doc));
  }
  return docs;
}

std::vector<Document> GenerateXmark(const SimpleCorpusOptions& options) {
  Rng rng(options.seed);
  WordBag words(4000, 1.0, {});
  std::vector<Document> docs;
  size_t elements = 0;
  size_t doc_index = 0;
  static const char* kRegions[] = {"africa", "asia", "europe",
                                   "namerica", "samerica"};
  while (elements < options.target_elements) {
    Document doc;
    doc.uri = "xmark/part" + std::to_string(doc_index++) + ".xml";
    doc.root = Node::Element("site");
    Node* regions = doc.root->AddElement("regions");
    for (const char* region_name : kRegions) {
      Node* region = regions->AddElement(region_name);
      const size_t n_items = 4 + rng.Uniform(8);
      for (size_t i = 0; i < n_items; ++i) {
        Node* item = region->AddElement("item");
        std::string name;
        words.SampleSentence(rng, 1 + rng.Uniform(3), name);
        item->AddElement("name")->AddText(std::move(name));
        Node* descr = item->AddElement("description");
        Node* parlist = descr->AddElement("parlist");
        const size_t n_par = 1 + rng.Uniform(4);
        for (size_t p = 0; p < n_par; ++p) {
          std::string body;
          words.SampleSentence(rng, 8 + rng.Uniform(20), body);
          parlist->AddElement("listitem")->AddText(std::move(body));
        }
        Node* mailbox = item->AddElement("mailbox");
        const size_t n_mail = rng.Uniform(3);
        for (size_t mm = 0; mm < n_mail; ++mm) {
          Node* mail = mailbox->AddElement("mail");
          mail->AddElement("from")->AddText(SyntheticWord(rng.Uniform(900)));
          mail->AddElement("date")->AddText("2000-01-01");
          std::string body;
          words.SampleSentence(rng, 10 + rng.Uniform(15), body);
          mail->AddElement("text")->AddText(std::move(body));
        }
        elements += 5 + n_par + 4 * n_mail;
      }
    }
    Node* people = doc.root->AddElement("people");
    const size_t n_people = 20 + rng.Uniform(20);
    for (size_t p = 0; p < n_people; ++p) {
      Node* person = people->AddElement("person");
      person->AddElement("name")->AddText(
          std::string("P").append(SyntheticWord(rng.Uniform(3000))));
      person->AddElement("emailaddress")
          ->AddText(SyntheticWord(rng.Uniform(3000)) + "@example.org");
      elements += 3;
    }
    AnnotateSids(doc);
    docs.push_back(std::move(doc));
  }
  return docs;
}

std::vector<Document> GenerateSwissprot(const SimpleCorpusOptions& options) {
  Rng rng(options.seed);
  WordBag words(2500, 1.0, {});
  std::vector<Document> docs;
  size_t elements = 0;
  size_t doc_index = 0;
  while (elements < options.target_elements) {
    Document doc;
    doc.uri = "sprot/part" + std::to_string(doc_index++) + ".xml";
    doc.root = Node::Element("root");
    for (size_t e = 0; e < 120 && elements < options.target_elements; ++e) {
      Node* entry = doc.root->AddElement("Entry");
      entry->AddElement("AC")->AddText(
          std::string("P").append(std::to_string(rng.Uniform(99999))));
      entry->AddElement("Mod")->AddText("2006-08-01");
      std::string descr;
      words.SampleSentence(rng, 4 + rng.Uniform(8), descr);
      entry->AddElement("Descr")->AddText(std::move(descr));
      entry->AddElement("Species")->AddText(SyntheticWord(rng.Uniform(400)));
      Node* ref = entry->AddElement("Ref");
      const size_t n_auth = 1 + rng.Uniform(5);
      for (size_t a = 0; a < n_auth; ++a) {
        ref->AddElement("Author")->AddText(
            std::string("A").append(SyntheticWord(rng.Uniform(2500))));
      }
      ref->AddElement("Cite")->AddText(SyntheticWord(rng.Uniform(600)));
      const size_t n_kw = 1 + rng.Uniform(4);
      for (size_t k = 0; k < n_kw; ++k) {
        entry->AddElement("Keyword")->AddText(SyntheticWord(rng.Uniform(200)));
      }
      const size_t n_feat = rng.Uniform(6);
      for (size_t f = 0; f < n_feat; ++f) {
        Node* feat = entry->AddElement("Features");
        feat->AddElement("from")->AddText(std::to_string(rng.Uniform(900)));
        feat->AddElement("to")->AddText(std::to_string(rng.Uniform(900)));
      }
      elements += 7 + n_auth + n_kw + 3 * n_feat;
    }
    AnnotateSids(doc);
    docs.push_back(std::move(doc));
  }
  return docs;
}

std::vector<Document> GenerateNasa(const SimpleCorpusOptions& options) {
  Rng rng(options.seed);
  WordBag words(3500, 1.0, {});
  std::vector<Document> docs;
  size_t elements = 0;
  size_t doc_index = 0;
  while (elements < options.target_elements) {
    Document doc;
    doc.uri = "nasa/part" + std::to_string(doc_index++) + ".xml";
    doc.root = Node::Element("datasets");
    for (size_t d = 0; d < 60 && elements < options.target_elements; ++d) {
      Node* ds = doc.root->AddElement("dataset");
      std::string title;
      words.SampleSentence(rng, 3 + rng.Uniform(6), title);
      ds->AddElement("title")->AddText(std::move(title));
      ds->AddElement("altname")->AddText(SyntheticWord(rng.Uniform(800)));
      Node* abstract = ds->AddElement("abstract");
      const size_t n_par = 1 + rng.Uniform(5);
      for (size_t p = 0; p < n_par; ++p) {
        std::string body;
        words.SampleSentence(rng, 20 + rng.Uniform(40), body);
        abstract->AddElement("para")->AddText(std::move(body));
      }
      const size_t n_auth = 1 + rng.Uniform(4);
      for (size_t a = 0; a < n_auth; ++a) {
        Node* author = ds->AddElement("author");
        author->AddElement("lastName")->AddText(
            std::string("N").append(SyntheticWord(rng.Uniform(1500))));
        author->AddElement("initial")->AddText("X");
      }
      Node* table = ds->AddElement("tableHead");
      const size_t n_fields = 2 + rng.Uniform(6);
      for (size_t f = 0; f < n_fields; ++f) {
        table->AddElement("field")->AddText(SyntheticWord(rng.Uniform(300)));
      }
      elements += 5 + n_par + 3 * n_auth + n_fields;
    }
    AnnotateSids(doc);
    docs.push_back(std::move(doc));
  }
  return docs;
}

std::vector<Document> GenerateInex(const InexOptions& options) {
  Rng rng(options.seed);
  WordBag words(3000, 1.0,
                {{"system", 35}, {"interface", 300}, {"graph", 250}});
  std::vector<Document> mains;
  std::vector<Document> abstracts;
  mains.reserve(options.publications);
  abstracts.reserve(options.publications);
  // Planted matches are spread evenly across the collection.
  const size_t stride =
      options.planted_matches == 0
          ? options.publications + 1
          : std::max<size_t>(1, options.publications / options.planted_matches);
  for (size_t i = 0; i < options.publications; ++i) {
    const bool planted = options.planted_matches > 0 && i % stride == 0 &&
                         i / stride < options.planted_matches;
    const std::string abs_uri = "inex/abs" + std::to_string(i) + ".xml";

    Document main;
    main.uri = "inex/doc" + std::to_string(i) + ".xml";
    main.entities["thisabstract"] = abs_uri;
    main.root = Node::Element("article");
    const size_t n_auth = 1 + rng.Uniform(3);
    for (size_t a = 0; a < n_auth; ++a) {
      main.root->AddElement("author")->AddText(
          std::string("A").append(SyntheticWord(rng.Uniform(2000))));
    }
    std::string title;
    words.SampleSentence(rng, 4 + rng.Uniform(6), title);
    if (planted) title += " system";
    main.root->AddElement("title")->AddText(std::move(title));
    main.root->AddElement("year")->AddText(
        std::to_string(1995 + rng.Uniform(12)));
    // The abstract element's content is intensional: an entity include.
    main.root->AddElement("abstract")->AddEntityRef("thisabstract");
    AnnotateSids(main);
    mains.push_back(std::move(main));

    Document abs;
    abs.uri = abs_uri;
    abs.root = Node::Element("abstractBody");
    std::string body;
    words.SampleSentence(rng, 40 + rng.Uniform(60), body);
    if (planted) body += " interface";
    abs.root->AddElement("para")->AddText(std::move(body));
    AnnotateSids(abs);
    abstracts.push_back(std::move(abs));
  }
  std::vector<Document> docs;
  docs.reserve(mains.size() + abstracts.size());
  for (auto& d : mains) docs.push_back(std::move(d));
  for (auto& d : abstracts) docs.push_back(std::move(d));
  return docs;
}

namespace {
void DepthStats(const Node& node, size_t depth, size_t& sum, size_t& count) {
  if (node.IsElement()) {
    sum += depth;
    ++count;
  }
  for (const auto& c : node.children()) DepthStats(*c, depth + 1, sum, count);
}
}  // namespace

CorpusStats ComputeStats(const std::vector<Document>& docs) {
  CorpusStats stats;
  stats.documents = docs.size();
  size_t depth_sum = 0;
  for (const auto& doc : docs) {
    if (!doc.root) continue;
    size_t count = 0;
    DepthStats(*doc.root, 1, depth_sum, count);
    stats.elements += count;
    stats.serialized_bytes += SerializeDocument(doc).size();
    if (doc.root->sid().end > stats.max_tag_number) {
      stats.max_tag_number = doc.root->sid().end;
    }
  }
  if (stats.elements > 0) {
    stats.avg_depth =
        static_cast<double>(depth_sum) / static_cast<double>(stats.elements);
  }
  return stats;
}

}  // namespace kadop::xml::corpus
